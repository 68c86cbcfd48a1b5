/**
 * @file
 * WakeWheel — the pending-wake schedule of the event-driven kernel.
 *
 * A classic timing wheel: near-future wakes land in a ring of slots
 * indexed by cycle modulo the wheel size (O(1) schedule and drain),
 * wakes more than a revolution away overflow into a min-heap. The
 * simulator drains the wheel once per cycle, in cycle order, so a
 * module woken for cycle C is awake before cycle C's tick phase.
 *
 * Entries are (cycle, module) pairs; duplicates are allowed (draining
 * an already-awake module is a harmless no-op), which lets producers
 * re-arm consumers without coordinating.
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
    explicit WakeWheel(std::size_t slots = 1024) : _slots(slots)
    {
        beethoven_assert(slots >= 2, "wake wheel needs >= 2 slots");
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
        if (at - now < _slots.size())
            _slots[at % _slots.size()].push_back(Entry{at, m});
        else
            _far.push(Entry{at, m});
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
        std::vector<Entry> &slot = _slots[now % _slots.size()];
        if (!slot.empty()) {
            std::size_t keep = 0;
            for (std::size_t i = 0; i < slot.size(); ++i) {
                if (slot[i].at <= now)
                    fn(slot[i].m);
                else
                    slot[keep++] = slot[i];
            }
            slot.resize(keep);
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
        std::size_t n = _far.size();
        for (const auto &slot : _slots)
            n += slot.size();
        return n;
    }

  private:
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

    std::vector<std::vector<Entry>> _slots BTH_GUARDED_BY(gSimThreadRole);
    std::priority_queue<Entry, std::vector<Entry>, Later> _far
        BTH_GUARDED_BY(gSimThreadRole);
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_WAKE_WHEEL_H
