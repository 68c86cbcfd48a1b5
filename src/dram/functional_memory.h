/**
 * @file
 * Sparse functional backing store for the accelerator-visible memory
 * space. Shared between the DRAM controller (beat reads/writes) and the
 * host runtime's DMA engine (bulk copies).
 */

#ifndef BEETHOVEN_DRAM_FUNCTIONAL_MEMORY_H
#define BEETHOVEN_DRAM_FUNCTIONAL_MEMORY_H

#include <array>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/types.h"

namespace beethoven
{

/** Byte-addressable sparse memory with 4 KiB allocation granularity. */
class FunctionalMemory
{
  public:
    static constexpr std::size_t pageBytes = 4096;

    /** Read @p len bytes at @p addr into @p dst. Unwritten bytes are 0. */
    void read(Addr addr, std::size_t len, u8 *dst) const;

    /** Write @p len bytes from @p src at @p addr. */
    void write(Addr addr, std::size_t len, const u8 *src);

    /**
     * Write with a per-byte strobe (empty strobe = all bytes). Each
     * contiguous run of enabled bytes is one write().
     */
    void writeMasked(Addr addr, std::span<const u8> data,
                     const std::vector<bool> &strb);

    /** Convenience typed accessors (native endianness). */
    template <typename T>
    T
    readValue(Addr addr) const
    {
        T v{};
        read(addr, sizeof(T), reinterpret_cast<u8 *>(&v));
        return v;
    }

    template <typename T>
    void
    writeValue(Addr addr, const T &v)
    {
        write(addr, sizeof(T), reinterpret_cast<const u8 *>(&v));
    }

    /** Number of pages currently materialized (for tests). */
    std::size_t numPages() const { return _pages.size(); }

  private:
    using Page = std::array<u8, pageBytes>;

    Page &pageFor(Addr addr);
    const Page *pageForIfPresent(Addr addr) const;

    std::unordered_map<u64, std::unique_ptr<Page>> _pages;
};

} // namespace beethoven

#endif // BEETHOVEN_DRAM_FUNCTIONAL_MEMORY_H
