/**
 * @file
 * Tests for the sparse functional backing store.
 */

#include <gtest/gtest.h>

#include "base/rng.h"
#include "dram/functional_memory.h"

namespace beethoven
{
namespace
{

TEST(FunctionalMemory, UnwrittenReadsAsZero)
{
    FunctionalMemory mem;
    u8 buf[16];
    std::fill(std::begin(buf), std::end(buf), 0xFF);
    mem.read(0x123456, sizeof(buf), buf);
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.numPages(), 0u) << "reads must not materialize pages";
}

TEST(FunctionalMemory, WriteReadRoundTrip)
{
    FunctionalMemory mem;
    const std::vector<u8> data = {1, 2, 3, 4, 5};
    mem.write(100, data.size(), data.data());
    std::vector<u8> out(5);
    mem.read(100, 5, out.data());
    EXPECT_EQ(out, data);
}

TEST(FunctionalMemory, CrossPageAccess)
{
    FunctionalMemory mem;
    // Span three pages.
    std::vector<u8> data(2 * FunctionalMemory::pageBytes + 100);
    Rng rng(5);
    for (auto &b : data)
        b = static_cast<u8>(rng.next());
    const Addr base = FunctionalMemory::pageBytes - 50;
    mem.write(base, data.size(), data.data());
    std::vector<u8> out(data.size());
    mem.read(base, out.size(), out.data());
    EXPECT_EQ(out, data);
    EXPECT_EQ(mem.numPages(), 4u);
}

TEST(FunctionalMemory, TypedAccessors)
{
    FunctionalMemory mem;
    mem.writeValue<u64>(0x1000, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(mem.readValue<u64>(0x1000), 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(mem.readValue<u32>(0x1000), 0xCAFEF00Du);
    mem.writeValue<double>(0x2000, 3.25);
    EXPECT_EQ(mem.readValue<double>(0x2000), 3.25);
}

TEST(FunctionalMemory, MaskedWriteOnlyTouchesEnabledBytes)
{
    FunctionalMemory mem;
    const std::vector<u8> base(8, 0xAA);
    mem.write(64, base.size(), base.data());

    std::vector<u8> data = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<bool> strb = {true, false, true, false,
                              false, false, false, true};
    mem.writeMasked(64, data, strb);

    std::vector<u8> out(8);
    mem.read(64, 8, out.data());
    EXPECT_EQ(out, (std::vector<u8>{1, 0xAA, 3, 0xAA, 0xAA, 0xAA, 0xAA,
                                    8}));
}

TEST(FunctionalMemory, EmptyStrobeWritesEverything)
{
    FunctionalMemory mem;
    std::vector<u8> data = {9, 8, 7};
    mem.writeMasked(0, data, {});
    std::vector<u8> out(3);
    mem.read(0, 3, out.data());
    EXPECT_EQ(out, data);
}

TEST(FunctionalMemory, MaskedWriteRunsMayCrossPages)
{
    // Two enabled runs; the second straddles the 4 KiB page boundary.
    FunctionalMemory mem;
    const Addr base = FunctionalMemory::pageBytes - 8;
    const std::vector<u8> old(16, 0xAA);
    mem.write(base, old.size(), old.data());

    std::vector<u8> data(16);
    for (unsigned i = 0; i < 16; ++i)
        data[i] = static_cast<u8>(i + 1);
    std::vector<bool> strb(16, false);
    for (unsigned i : {1u, 2u, 6u, 7u, 8u, 9u, 10u})
        strb[i] = true;
    mem.writeMasked(base, data, strb);

    std::vector<u8> out(16);
    mem.read(base, out.size(), out.data());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], strb[i] ? data[i] : 0xAA) << "byte " << i;
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(FunctionalMemory, RandomSparseTraffic)
{
    FunctionalMemory mem;
    Rng rng(77);
    std::map<Addr, u8> model;
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.nextBounded(1ull << 30);
        const u8 v = static_cast<u8>(rng.next());
        mem.write(addr, 1, &v);
        model[addr] = v;
    }
    for (const auto &[addr, v] : model) {
        u8 got = 0;
        mem.read(addr, 1, &got);
        ASSERT_EQ(got, v) << "addr " << addr;
    }
}

} // namespace
} // namespace beethoven
