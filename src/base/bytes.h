/**
 * @file
 * Bytes — a byte payload held inline up to one 512-bit bus word.
 *
 * A beat, a stream word or a scratchpad row is a fixed-width bus word
 * in hardware. Every width the shipped platforms and cores use fits in
 * kInlineBytes (the F1 and sim buses are 64 B, the GeMM, A3 and NW rows
 * 512 bits), so the payload lives inside the flit that carries it and
 * moving a flit through a TimedQueue never touches the heap. A wider
 * payload (a 128-byte port over a 64-byte bus is legal) spills to a
 * heap buffer and otherwise behaves the same.
 *
 * The interface is the subset of std::vector<u8> the simulator uses.
 */

#ifndef BEETHOVEN_BASE_BYTES_H
#define BEETHOVEN_BASE_BYTES_H

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>

#include "base/types.h"

namespace beethoven
{

class Bytes
{
  public:
    /** Payload sizes up to this many bytes never allocate. */
    static constexpr std::size_t kInlineBytes = 64;

    Bytes() = default;
    Bytes(std::initializer_list<u8> init) { assign(init.begin(), init.end()); }
    Bytes(const Bytes &o) { assign(o.begin(), o.end()); }
    Bytes(Bytes &&o) noexcept { take(o); }

    Bytes &
    operator=(const Bytes &o)
    {
        if (this != &o)
            assign(o.begin(), o.end());
        return *this;
    }

    Bytes &
    operator=(Bytes &&o) noexcept
    {
        if (this != &o)
            take(o);
        return *this;
    }

    Bytes &
    operator=(std::initializer_list<u8> init)
    {
        assign(init.begin(), init.end());
        return *this;
    }

    u8 *data() { return _heap ? _heap.get() : _inline; }
    const u8 *data() const { return _heap ? _heap.get() : _inline; }
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    u8 *begin() { return data(); }
    u8 *end() { return data() + _size; }
    const u8 *begin() const { return data(); }
    const u8 *end() const { return data() + _size; }

    u8 &operator[](std::size_t i) { return data()[i]; }
    const u8 &operator[](std::size_t i) const { return data()[i]; }

    /** Become @p n copies of @p v. */
    void
    assign(std::size_t n, u8 v)
    {
        reserve(n, false);
        std::memset(data(), v, n);
        _size = static_cast<u32>(n);
    }

    /** Become a copy of [first, last) (iterators only, not counts). */
    template <std::forward_iterator It>
    void
    assign(It first, It last)
    {
        const auto n = static_cast<std::size_t>(std::distance(first, last));
        reserve(n, false);
        std::copy(first, last, data());
        _size = static_cast<u32>(n);
    }

    /** Resize to @p n bytes; bytes past the old size read as zero. */
    void
    resize(std::size_t n)
    {
        if (n > _size) {
            reserve(n, true);
            std::memset(data() + _size, 0, n - _size);
        }
        _size = static_cast<u32>(n);
    }

    /** Append [first, last), which must not point into this payload. */
    void
    append(const u8 *first, const u8 *last)
    {
        const auto n = static_cast<std::size_t>(last - first);
        reserve(_size + n, true);
        std::memcpy(data() + _size, first, n);
        _size += static_cast<u32>(n);
    }

    void clear() { _size = 0; }

    friend bool
    operator==(const Bytes &a, const Bytes &b)
    {
        return a._size == b._size &&
               std::memcmp(a.data(), b.data(), a._size) == 0;
    }

  private:
    /** Make room for @p n bytes, keeping the contents if @p keep. */
    void
    reserve(std::size_t n, bool keep)
    {
        if (n <= _cap)
            return;
        const std::size_t cap = n > 2 * _cap ? n : 2 * _cap;
        std::unique_ptr<u8[]> heap(new u8[cap]);
        if (keep)
            std::memcpy(heap.get(), data(), _size);
        _heap = std::move(heap);
        _cap = static_cast<u32>(cap);
    }

    /** Move @p o's contents here and leave @p o empty. */
    void
    take(Bytes &o)
    {
        if (o._heap) {
            _heap = std::move(o._heap);
            _cap = o._cap;
            o._cap = kInlineBytes;
        } else if (_heap) {
            std::memcpy(_heap.get(), o._inline, o._size);
        } else {
            // A whole-array copy is a few fixed-width moves; copying
            // o._size bytes would be a call.
            std::memcpy(_inline, o._inline, kInlineBytes);
        }
        _size = o._size;
        o._size = 0;
    }

    u8 _inline[kInlineBytes] = {};
    std::unique_ptr<u8[]> _heap;
    u32 _size = 0;
    u32 _cap = kInlineBytes;
};

} // namespace beethoven

#endif // BEETHOVEN_BASE_BYTES_H
