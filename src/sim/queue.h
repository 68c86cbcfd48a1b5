/**
 * @file
 * TimedQueue — the decoupled (valid/ready) channel primitive.
 *
 * Semantics match a synchronous hardware FIFO (Chisel's Queue with
 * flow=false, pipe=false):
 *
 *  - an entry pushed during cycle C becomes poppable at cycle C+latency
 *    (latency >= 1; larger values model pipelined links, e.g. the extra
 *    buffering Beethoven inserts on SLR crossings);
 *  - space freed by a pop during cycle C is visible to producers at
 *    cycle C+1 (registered occupancy);
 *  - at most `capacity` entries are in flight at once.
 *
 * Both rules make the observable state a function of the previous
 * cycle's commits only, so module tick order cannot change results.
 */

#ifndef BEETHOVEN_SIM_QUEUE_H
#define BEETHOVEN_SIM_QUEUE_H

#include <deque>
#include <source_location>
#include <utility>
#include <vector>

#include "base/log.h"
#include "base/types.h"
#include "sim/graph_record.h"
#include "sim/simulator.h"

namespace beethoven
{

template <typename T>
class TimedQueue : public Committable
{
  public:
    /**
     * @param sim       owning simulator (for cycle time and commits)
     * @param capacity  maximum in-flight entries (>= 1)
     * @param latency   cycles from push to pop visibility (>= 1)
     */
    TimedQueue(Simulator &sim, std::size_t capacity, unsigned latency = 1,
               std::source_location loc = std::source_location::current())
        : _sim(sim), _capacity(capacity), _latency(latency)
    {
        beethoven_assert(capacity >= 1, "queue capacity must be >= 1");
        beethoven_assert(latency >= 1, "queue latency must be >= 1");
        sim.registerCommittable(this);
        sim.graphRecord().registerQueue(this, capacity, latency,
                                        loc);
    }

    /**
     * Event-kernel wake wiring: wake @p consumer whenever an entry is
     * pushed. Pushes wake twice — immediately (staged occupancy is
     * visible to later-ticking modules this cycle) and at push
     * visibility (cycle + latency, when the entry becomes poppable) —
     * so a consumer that wakes early, finds nothing poppable, and
     * re-sleeps is still re-armed for the beat's arrival.
     */
    void
    setWakeOnPush(Module *consumer,
                  std::source_location loc = std::source_location::current())
    {
        // The plant (soc_fuzz --plant-wake-violation) records the
        // consumer declaration but skips arming — exactly the lost-wake
        // bug class BTH100 exists to catch.
        const bool planted = consumePlantMissingPushWake();
        if (!planted)
            _wakeOnPush = consumer;
        _sim.graphRecord().recordPushWake(this, consumer, !planted,
                                          loc);
    }

    /**
     * Wake @p producer whenever an entry is popped. Occupancy is
     * registered (freed space appears at cycle + 1), so the wake is
     * armed for the next cycle regardless of tick order.
     */
    void
    setWakeOnPop(Module *producer,
                 std::source_location loc = std::source_location::current())
    {
        _wakeOnPop = producer;
        _sim.graphRecord().recordPopWake(this, producer, true,
                                         loc);
    }

    /**
     * Record-only consumer declaration for the analyzer: the consumer
     * polls this queue every tick and needs no push wake (it never
     * sleeps, or another armed source covers it).
     */
    void
    declareConsumer(Module *consumer,
                    std::source_location loc = std::source_location::current())
    {
        _sim.graphRecord().declareConsumer(this, consumer,
                                           loc);
    }

    /** Record-only producer declaration for the analyzer. */
    void
    declareProducer(Module *producer,
                    std::source_location loc = std::source_location::current())
    {
        _sim.graphRecord().declareProducer(this, producer,
                                           loc);
    }

    /** True if a push this cycle would be accepted. */
    bool
    canPush() const
    {
        return occupancy() < _capacity;
    }

    /** Stage a push; visible to the consumer after `latency` commits. */
    void
    push(T value)
    {
        beethoven_assert(canPush(), "push to full queue");
        _pending.push_back(std::move(value));
        if (_wakeOnPush != nullptr) {
            _sim.wakeNow(_wakeOnPush);
            _sim.wakeAt(_wakeOnPush, _sim.cycle() + _latency);
        }
        markDirty();
    }

    /** True if front() / pop() are legal this cycle. */
    bool
    canPop() const
    {
        return !_entries.empty() &&
               _entries.front().readyAt <= _sim.cycle();
    }

    bool empty() const { return !canPop(); }

    /** Reference to the oldest visible entry. */
    const T &
    front() const
    {
        beethoven_assert(canPop(), "front() on empty queue");
        return _entries.front().value;
    }

    /** Remove and return the oldest visible entry. */
    T
    pop()
    {
        beethoven_assert(canPop(), "pop() on empty queue");
        T v = std::move(_entries.front().value);
        _entries.pop_front();
        ++_popsThisCycle;
        if (_wakeOnPop != nullptr)
            _sim.wakeAt(_wakeOnPop, _sim.cycle() + 1);
        markDirty();
        return v;
    }

    /** Entries currently occupying space (committed + staged). */
    std::size_t
    occupancy() const
    {
        return _entries.size() + _pending.size() + _popsThisCycle;
    }

    std::size_t capacity() const { return _capacity; }
    unsigned latency() const { return _latency; }

    /** Number of entries poppable this cycle. */
    std::size_t
    visibleSize() const
    {
        std::size_t n = 0;
        for (const auto &e : _entries) {
            if (e.readyAt > _sim.cycle())
                break;
            ++n;
        }
        return n;
    }

    void
    commit() override
    {
        // Pushes staged during cycle C commit as C completes and become
        // visible once the simulator reaches C + latency.
        const Cycle ready_at = _sim.cycle() + _latency;
        for (auto &v : _pending)
            _entries.push_back(Entry{ready_at, std::move(v)});
        _pending.clear();
        _popsThisCycle = 0;
        _dirty = false;
    }

  private:
    struct Entry
    {
        Cycle readyAt;
        T value;
    };

    /** First push/pop of the cycle enrols this queue for commit. */
    void
    markDirty()
    {
        if (!_dirty && _sim.eventKernel()) {
            _dirty = true;
            _sim.markDirty(this);
        }
    }

    Simulator &_sim;
    std::size_t _capacity;
    unsigned _latency;
    std::deque<Entry> _entries;
    std::vector<T> _pending;
    std::size_t _popsThisCycle = 0;
    Module *_wakeOnPush = nullptr;
    Module *_wakeOnPop = nullptr;
    bool _dirty = false;
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_QUEUE_H
