/**
 * @file
 * Tests for Bytes, the inline byte payload of beats, stream words and
 * scratchpad rows: the 64/65-byte inline/heap boundary, copies and
 * moves across it, and the std::vector<u8> subset it provides.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "base/bytes.h"
#include "perf/kpi.h"

namespace beethoven
{
namespace
{

/** Heap allocations made while running @p fn. */
template <typename Fn>
u64
allocsDuring(Fn &&fn)
{
    const u64 before = allocCounters().allocs;
    fn();
    return allocCounters().allocs - before;
}

/** A payload of @p n bytes counting up from @p first. */
Bytes
ramp(std::size_t n, u8 first = 1)
{
    Bytes b;
    b.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<u8>(first + i);
    return b;
}

TEST(Bytes, InlineUpTo64BytesHeapFrom65)
{
    Bytes b;
    EXPECT_EQ(allocsDuring([&] { b.assign(Bytes::kInlineBytes, 7); }), 0u);
    EXPECT_EQ(b.size(), 64u);
    EXPECT_EQ(allocsDuring([&] { b.resize(65); }), 1u);
    ASSERT_EQ(b.size(), 65u);
    for (std::size_t i = 0; i < 64; ++i)
        ASSERT_EQ(b[i], 7) << "byte " << i << " lost crossing to the heap";
    EXPECT_EQ(b[64], 0) << "resize zero-fills the new byte";
    // Once on the heap, shrinking and regrowing within it is free.
    EXPECT_EQ(allocsDuring([&] {
                  b.resize(3);
                  b.resize(65);
              }),
              0u);
    EXPECT_EQ(b[3], 0);
}

TEST(Bytes, CopyAndMoveAcrossTheBoundary)
{
    for (std::size_t n : {std::size_t(0), std::size_t(8), std::size_t(64),
                          std::size_t(65), std::size_t(128)}) {
        const Bytes src = ramp(n);
        Bytes copy;
        const u64 copy_allocs = allocsDuring([&] { copy = src; });
        EXPECT_EQ(copy_allocs, n > 64 ? 1u : 0u) << n;
        EXPECT_EQ(copy, src) << n;
        EXPECT_EQ(Bytes(src), src) << n;

        Bytes from = src;
        Bytes moved;
        EXPECT_EQ(allocsDuring([&] { moved = std::move(from); }), 0u)
            << "a move never allocates (" << n << " bytes)";
        EXPECT_EQ(moved, src) << n;
        EXPECT_TRUE(from.empty()) << n;

        Bytes from2 = src;
        Bytes constructed(std::move(from2));
        EXPECT_EQ(constructed, src) << n;
        EXPECT_TRUE(from2.empty()) << n;

        // Moving into a payload already on the heap keeps either
        // buffer valid.
        Bytes big = ramp(100, 50);
        Bytes from3 = src;
        big = std::move(from3);
        EXPECT_EQ(big, src) << n;
    }
}

TEST(Bytes, AssignOverloads)
{
    Bytes b;
    b.assign(32, 0); // the fill overload, not the iterator template
    EXPECT_EQ(b.size(), 32u);
    EXPECT_EQ(b[31], 0);

    const std::vector<u8> v = {4, 5, 6};
    b.assign(v.begin(), v.end());
    EXPECT_EQ(b, (Bytes{4, 5, 6}));

    b = {9, 0, 0, 0};
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 9);

    b.assign(100, 0xEE);
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(b[99], 0xEE);
    EXPECT_FALSE(b == (Bytes{9, 0, 0, 0}));
}

TEST(Bytes, AppendGrowsPastTheInlineBuffer)
{
    Bytes b;
    std::vector<u8> expect;
    for (unsigned chunk = 0; chunk < 6; ++chunk) {
        const Bytes part = ramp(24, static_cast<u8>(chunk * 24));
        b.append(part.begin(), part.end());
        expect.insert(expect.end(), part.begin(), part.end());
    }
    ASSERT_EQ(b.size(), expect.size());
    EXPECT_TRUE(std::equal(b.begin(), b.end(), expect.begin()));
    b.clear();
    EXPECT_TRUE(b.empty());
}

} // namespace
} // namespace beethoven
