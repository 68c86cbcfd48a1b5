#include "dram/functional_memory.h"

#include <cstring>

#include "base/log.h"

namespace beethoven
{

FunctionalMemory::Page &
FunctionalMemory::pageFor(Addr addr)
{
    const u64 pn = addr / pageBytes;
    auto it = _pages.find(pn);
    if (it == _pages.end()) {
        auto page = std::make_unique<Page>();
        page->fill(0);
        it = _pages.emplace(pn, std::move(page)).first;
    }
    return *it->second;
}

const FunctionalMemory::Page *
FunctionalMemory::pageForIfPresent(Addr addr) const
{
    auto it = _pages.find(addr / pageBytes);
    return it == _pages.end() ? nullptr : it->second.get();
}

void
FunctionalMemory::read(Addr addr, std::size_t len, u8 *dst) const
{
    while (len > 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t chunk = std::min(len, pageBytes - off);
        if (const Page *p = pageForIfPresent(addr))
            std::memcpy(dst, p->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        addr += chunk;
        dst += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::write(Addr addr, std::size_t len, const u8 *src)
{
    while (len > 0) {
        const std::size_t off = addr % pageBytes;
        const std::size_t chunk = std::min(len, pageBytes - off);
        std::memcpy(pageFor(addr).data() + off, src, chunk);
        addr += chunk;
        src += chunk;
        len -= chunk;
    }
}

void
FunctionalMemory::writeMasked(Addr addr, std::span<const u8> data,
                              const std::vector<bool> &strb)
{
    if (strb.empty()) {
        write(addr, data.size(), data.data());
        return;
    }
    beethoven_assert(strb.size() == data.size(),
                     "strobe width %zu != data width %zu", strb.size(),
                     data.size());
    std::size_t i = 0;
    while (i < data.size()) {
        if (!strb[i]) {
            ++i;
            continue;
        }
        std::size_t end = i + 1;
        while (end < data.size() && strb[end])
            ++end;
        write(addr + i, end - i, data.data() + i);
        i = end;
    }
}

} // namespace beethoven
