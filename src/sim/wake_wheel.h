/**
 * @file
 * WakeWheel — the pending-wake schedule of the event-driven kernel.
 *
 * A classic timing wheel: near-future wakes land in a ring of slots
 * indexed by cycle modulo the wheel size (O(1) schedule and drain),
 * wakes more than a revolution away overflow into a min-heap. The
 * simulator drains the wheel once per cycle, in cycle order, so a
 * module woken for cycle C is awake before cycle C's tick phase. It
 * holds the wakes two or more cycles out and those armed between
 * steps; a tick's wakes for the next cycle bypass it (Simulator's
 * next-cycle mask).
 *
 * Entries are (cycle, module) pairs; duplicates are allowed (draining
 * an already-awake module is a harmless no-op), which lets producers
 * re-arm consumers without coordinating. Each slot is a singly linked
 * list threaded through one entry pool with a free list, so once the
 * pool has grown to the peak number of armed wakes, scheduling and
 * draining allocate nothing. The order of entries within a slot is
 * unobservable: draining only sets awake bits.
 */

#ifndef BEETHOVEN_SIM_WAKE_WHEEL_H
#define BEETHOVEN_SIM_WAKE_WHEEL_H

#include <cstddef>
#include <queue>
#include <vector>

#include "base/log.h"
#include "base/thread_annotations.h"
#include "base/types.h"

namespace beethoven
{

class Module;

class WakeWheel
{
  public:
    explicit WakeWheel(std::size_t slots = 1024) : _heads(slots, kNone)
    {
        beethoven_assert(slots >= 2, "wake wheel needs >= 2 slots");
        // Room for more wakes than the benchmark's SoCs arm at once,
        // so the pool's first growth does not land mid-run.
        _pool.reserve(64);
    }

    /**
     * Arm a wake for @p m at cycle @p at. @p now is the current cycle;
     * @p at must be strictly in the future (same-cycle wakes go through
     * the simulator's wakeNow path, not the wheel).
     */
    void
    schedule(Cycle now, Cycle at, Module *m) BTH_REQUIRES(gSimThreadRole)
    {
        beethoven_assert(at > now, "wheel wake must be in the future");
        if (at - now >= _heads.size()) {
            _far.push(Entry{at, m});
            return;
        }
        u32 i = _free;
        if (i == kNone) {
            i = static_cast<u32>(_pool.size());
            _pool.emplace_back();
        } else {
            _free = _pool[i].next;
        }
        u32 &head = _heads[at % _heads.size()];
        _pool[i] = Node{at, m, head};
        head = i;
        ++_ringEntries;
    }

    /**
     * Deliver every wake due at exactly @p now via @p fn(Module*).
     * Must be called once per cycle in ascending order; entries in the
     * current ring slot that belong to a later revolution are kept.
     */
    template <typename Fn>
    void
    drain(Cycle now, Fn &&fn) BTH_REQUIRES(gSimThreadRole)
    {
        // @p fn may schedule (growing the pool, so no references into
        // it are held across the call), but never into this slot: ring
        // wakes are less than a revolution out.
        const std::size_t slot = now % _heads.size();
        u32 prev = kNone;
        u32 i = _heads[slot];
        while (i != kNone) {
            const Node n = _pool[i];
            if (n.at > now) {
                prev = i;
                i = n.next;
                continue;
            }
            (prev == kNone ? _heads[slot] : _pool[prev].next) = n.next;
            _pool[i].next = _free;
            _free = i;
            --_ringEntries;
            fn(n.m);
            i = n.next;
        }
        while (!_far.empty() && _far.top().at <= now) {
            // Heap entries a revolution out become due without ever
            // migrating into the ring; deliver them straight away.
            fn(_far.top().m);
            _far.pop();
        }
    }

    /** Armed wakes not yet delivered (spurious duplicates included). */
    std::size_t
    pending() const BTH_REQUIRES(gSimThreadRole)
    {
        return _far.size() + _ringEntries;
    }

  private:
    static constexpr u32 kNone = ~u32(0);

    /** A ring entry; `next` links its slot's list or the free list. */
    struct Node
    {
        Cycle at = 0;
        Module *m = nullptr;
        u32 next = kNone;
    };
    struct Entry
    {
        Cycle at;
        Module *m;
    };
    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            return a.at > b.at;
        }
    };

    /** Per-slot list head (pool index, kNone when empty). */
    std::vector<u32> _heads BTH_GUARDED_BY(gSimThreadRole);
    std::vector<Node> _pool BTH_GUARDED_BY(gSimThreadRole);
    u32 _free BTH_GUARDED_BY(gSimThreadRole) = kNone;
    std::size_t _ringEntries BTH_GUARDED_BY(gSimThreadRole) = 0;
    std::priority_queue<Entry, std::vector<Entry>, Later> _far
        BTH_GUARDED_BY(gSimThreadRole);
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_WAKE_WHEEL_H
