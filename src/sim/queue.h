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
 * A push is stamped with its visibility cycle when it is made, and a
 * pop counts against the occupancy until its cycle ends, so what any
 * module observes is a function of the previous cycles only and tick
 * order cannot change results. There is no end-of-cycle commit: the
 * entries live in a `capacity`-slot ring allocated at construction.
 */

#ifndef BEETHOVEN_SIM_QUEUE_H
#define BEETHOVEN_SIM_QUEUE_H

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
class TimedQueue
{
  public:
    /**
     * @param sim       owning simulator (for cycle time and wakes)
     * @param capacity  maximum in-flight entries (>= 1)
     * @param latency   cycles from push to pop visibility (>= 1)
     */
    TimedQueue(Simulator &sim, std::size_t capacity, unsigned latency = 1,
               std::source_location loc = std::source_location::current())
        : _sim(sim), _slots(capacity), _latency(latency)
    {
        beethoven_assert(capacity >= 1, "queue capacity must be >= 1");
        beethoven_assert(latency >= 1, "queue latency must be >= 1");
        sim.graphRecord().registerQueue(this, loc);
    }

    /**
     * Event-kernel wake wiring: wake @p consumer whenever an entry is
     * pushed. Pushes wake twice — immediately (the new occupancy is
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
    setWakeOnPop(Module *producer)
    {
        _wakeOnPop = producer;
        _sim.graphRecord().recordPopWake(this, producer, true);
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
    declareProducer(Module *producer)
    {
        _sim.graphRecord().declareProducer(this, producer);
    }

    /** True if a push this cycle would be accepted. */
    bool
    canPush() const
    {
        return occupancy() < _slots.size();
    }

    /** Push; the entry becomes poppable at cycle + latency. */
    void
    push(T value)
    {
        beethoven_assert(canPush(), "push to full queue");
        Entry &e = _slots[wrap(_head + _count)];
        e.readyAt = _sim.cycle() + _latency;
        e.value = std::move(value);
        ++_count;
        if (_wakeOnPush != nullptr) {
            _sim.wakeNow(_wakeOnPush);
            _sim.wakeAt(_wakeOnPush, _sim.cycle() + _latency);
        }
    }

    /** True if front() / pop() are legal this cycle. */
    bool
    canPop() const
    {
        return _count != 0 && _slots[_head].readyAt <= _sim.cycle();
    }

    bool empty() const { return !canPop(); }

    /** Reference to the oldest visible entry. */
    const T &
    front() const
    {
        beethoven_assert(canPop(), "front() on empty queue");
        return _slots[_head].value;
    }

    /** Remove and return the oldest visible entry. */
    T
    pop()
    {
        beethoven_assert(canPop(), "pop() on empty queue");
        T v = std::move(_slots[_head].value);
        _head = wrap(_head + 1);
        --_count;
        const Cycle now = _sim.cycle();
        if (_popCycle != now) {
            _popCycle = now;
            _pops = 0;
        }
        ++_pops;
        if (_wakeOnPop != nullptr)
            _sim.wakeAt(_wakeOnPop, now + 1);
        return v;
    }

    /** Entries occupying space: queued ones plus this cycle's pops. */
    std::size_t
    occupancy() const
    {
        return _count + (_popCycle == _sim.cycle() ? _pops : 0);
    }

    std::size_t capacity() const { return _slots.size(); }
    unsigned latency() const { return _latency; }

    /** Number of entries poppable this cycle. */
    std::size_t
    visibleSize() const
    {
        std::size_t n = 0;
        while (n < _count &&
               _slots[wrap(_head + n)].readyAt <= _sim.cycle())
            ++n;
        return n;
    }

  private:
    struct Entry
    {
        Cycle readyAt = 0;
        T value{};
    };

    /** Ring index of @p i, which is below twice the capacity. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= _slots.size() ? i - _slots.size() : i;
    }

    Simulator &_sim;
    std::vector<Entry> _slots;
    unsigned _latency;
    std::size_t _head = 0;  ///< slot of the oldest entry
    std::size_t _count = 0; ///< entries in the ring
    Cycle _popCycle = 0;    ///< cycle the pops in _pops were made in
    std::size_t _pops = 0;
    Module *_wakeOnPush = nullptr;
    Module *_wakeOnPop = nullptr;
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_QUEUE_H
