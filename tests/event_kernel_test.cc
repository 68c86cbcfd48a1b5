/**
 * @file
 * Event-driven kernel unit tests: wake-wheel delivery order (ring and
 * overflow heap, modulo aliasing), the queue wake/re-arm contract under
 * both registration orders, self-scheduled wakes out of full
 * quiescence, the watchdog's interaction with an emptied active set,
 * stall conservation when slept gaps are backfilled with the class the
 * module went quiescent in, and awake-mask wakes across mask words.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "base/log.h"
#include "sim/queue.h"
#include "sim/simulator.h"
#include "sim/wake_wheel.h"
#include "trace/stall.h"

namespace beethoven
{
namespace
{

/** Inert module: the wheel stores pointers, it never ticks these. */
class Dummy : public Module
{
  public:
    Dummy(Simulator &sim, std::string name)
        : Module(sim, std::move(name))
    {}
    void tick() override {}
};

TEST(WakeWheel, DeliversInCycleOrder)
{
    Simulator sim;
    Dummy a(sim, "a"), b(sim, "b"), c(sim, "c");
    WakeWheel wheel(/*slots=*/4);

    // b twice at 2 (duplicates allowed), a at 3, c far out at 11: the
    // 4-slot ring holds 2 and 3; 11 overflows into the heap. Cycles 3
    // and 11 alias to the same ring slot — the heap entry must not be
    // delivered at 3 nor the ring entry re-delivered at 11.
    wheel.schedule(0, 2, &b);
    wheel.schedule(0, 2, &b);
    wheel.schedule(0, 3, &a);
    wheel.schedule(0, 11, &c);
    EXPECT_EQ(wheel.pending(), 4u);

    std::vector<std::pair<Cycle, Module *>> delivered;
    for (Cycle now = 1; now <= 12; ++now)
        wheel.drain(now, [&](Module *m) { delivered.push_back({now, m}); });

    ASSERT_EQ(delivered.size(), 4u);
    EXPECT_EQ(delivered[0], (std::pair<Cycle, Module *>{2, &b}));
    EXPECT_EQ(delivered[1], (std::pair<Cycle, Module *>{2, &b}));
    EXPECT_EQ(delivered[2], (std::pair<Cycle, Module *>{3, &a}));
    EXPECT_EQ(delivered[3], (std::pair<Cycle, Module *>{11, &c}));
    EXPECT_EQ(wheel.pending(), 0u);
}

TEST(WakeWheel, HeapHoldsMultipleRevolutions)
{
    Simulator sim;
    Dummy a(sim, "a"), b(sim, "b");
    WakeWheel wheel(/*slots=*/4);
    wheel.schedule(0, 9, &b);  // two revolutions out
    wheel.schedule(0, 5, &a);  // one revolution out
    std::vector<std::pair<Cycle, Module *>> delivered;
    for (Cycle now = 1; now <= 9; ++now)
        wheel.drain(now, [&](Module *m) { delivered.push_back({now, m}); });
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0], (std::pair<Cycle, Module *>{5, &a}));
    EXPECT_EQ(delivered[1], (std::pair<Cycle, Module *>{9, &b}));
}

/** Pushes one token every @p period cycles, then sleeps in between. */
class PulseProducer : public Module
{
  public:
    PulseProducer(Simulator &sim, TimedQueue<int> &out, Cycle period,
                  int count)
        : Module(sim, "producer"), _out(out), _period(period),
          _left(count)
    {
        declareSleepable();
        declareSelfWake();
    }

    void
    tick() override
    {
        if (_left > 0 && sim().cycle() % _period == 0 &&
            _out.canPush()) {
            _out.push(int(_left));
            --_left;
        }
        if (_left == 0) {
            requestSleep();
        } else {
            // Self-schedule the next pulse edge and sleep until then.
            const Cycle next =
                (sim().cycle() / _period + 1) * _period;
            requestWakeAt(next);
            requestSleep();
        }
    }

    int left() const { return _left; }

  private:
    TimedQueue<int> &_out;
    Cycle _period;
    int _left;
};

/** Pops whenever possible; sleeps instantly when the queue is dry. */
class SleepyConsumer : public Module
{
  public:
    SleepyConsumer(Simulator &sim, TimedQueue<int> &in)
        : Module(sim, "consumer"), _in(in)
    {
        declareSleepable();
        _in.setWakeOnPush(this);
    }

    void
    tick() override
    {
        if (_in.canPop()) {
            _in.pop();
            ++_popped;
        } else {
            requestSleep();
        }
    }

    int popped() const { return _popped; }

  private:
    TimedQueue<int> &_in;
    int _popped = 0;
};

/**
 * The push→wake re-arm must lose no event regardless of whether the
 * consumer is registered before the producer (wakeNow defers to the
 * next cycle: the consumer already ticked) or after it (the consumer
 * ticks later the same cycle). Run both orders to completion and
 * require the identical delivery count as the tick kernel.
 */
TEST(EventKernel, SameCycleRearmLosesNoEvents)
{
    for (const bool consumer_first : {true, false}) {
        for (const SimKernel kernel :
             {SimKernel::Tick, SimKernel::Event}) {
            Simulator sim;
            TimedQueue<int> q(sim, 2);
            std::unique_ptr<SleepyConsumer> cons;
            std::unique_ptr<PulseProducer> prod;
            if (consumer_first)
                cons = std::make_unique<SleepyConsumer>(sim, q);
            prod = std::make_unique<PulseProducer>(sim, q, 7, 10);
            if (!consumer_first)
                cons = std::make_unique<SleepyConsumer>(sim, q);
            sim.setKernel(kernel);
            sim.run(200);
            EXPECT_EQ(cons->popped(), 10)
                << "consumer_first=" << consumer_first << " kernel="
                << simKernelName(kernel);
            EXPECT_EQ(prod->left(), 0);
        }
    }
}

TEST(EventKernel, WakeOutOfFullQuiescence)
{
    // A module that sleeps with only a far-future self-wake armed: the
    // whole active set empties, and the wheel alone revives it.
    class Beacon : public Module
    {
      public:
        explicit Beacon(Simulator &sim) : Module(sim, "beacon")
        {
            declareSleepable();
            declareSelfWake();
        }
        void
        tick() override
        {
            ticks.push_back(sim().cycle());
            requestWakeAt(sim().cycle() + 100);
            requestSleep();
        }
        std::vector<Cycle> ticks;
    };

    Simulator sim;
    Beacon beacon(sim);
    sim.setKernel(SimKernel::Event);
    sim.run(5);
    EXPECT_EQ(sim.activeModules(), 0u);
    EXPECT_GE(sim.pendingWakes(), 1u);
    sim.run(245); // through cycle 250: wakes due at 100 and 200
    ASSERT_EQ(beacon.ticks.size(), 3u);
    EXPECT_EQ(beacon.ticks[0], 0u);
    EXPECT_EQ(beacon.ticks[1], 100u);
    EXPECT_EQ(beacon.ticks[2], 200u);
}

TEST(EventKernel, WatchdogFiresWhenActiveSetEmpties)
{
    // Quiescence is not progress: a design that goes to sleep forever
    // with work notionally outstanding must still trip the armed
    // watchdog — the event kernel keeps stepping cycles and the
    // watchdog check runs every cycle regardless of the active set.
    class Stuck : public Module
    {
      public:
        explicit Stuck(Simulator &sim) : Module(sim, "stuck")
        {
            declareSleepable();
        }
        void
        tick() override
        {
            requestSleep(); // never wakes again, never signals Busy
        }
    };

    Simulator sim;
    Stuck stuck(sim);
    sim.setKernel(SimKernel::Event);
    sim.setWatchdog(64);
    EXPECT_THROW(sim.run(10000), ConfigError);
    EXPECT_EQ(sim.activeModules(), 0u);
    EXPECT_LT(sim.cycle(), 10000u);
}

TEST(EventKernel, SleptGapBackfillsWithGapClass)
{
    // A module quiescing mid-stream attributes the slept span to the
    // class it went to sleep in (here StallUpstream), not Idle — the
    // same taxonomy the tick kernel produces by re-accounting that
    // class every cycle.
    class Waiter : public Module
    {
      public:
        explicit Waiter(Simulator &sim)
            : Module(sim, "waiter"), _stall(sim, "waiter")
        {
            declareSleepable();
            declareSelfWake();
        }
        void
        tick() override
        {
            if (sim().cycle() == 0 || sim().cycle() == 100) {
                _stall.account(StallClass::Busy);
                if (sim().cycle() == 0)
                    requestWakeAt(100);
                return;
            }
            _stall.account(StallClass::StallUpstream);
            sleepWith(_stall, StallClass::StallUpstream);
        }
        StallAccount _stall;
    };

    Simulator sim;
    Waiter w(sim);
    sim.setKernel(SimKernel::Event);
    sim.run(200);
    sim.publishStallStats();
    // Cycles 0 and 100 are Busy; 1 and 101 classify StallUpstream and
    // sleep; the slept spans [2,100) and [102,200) backfill as
    // StallUpstream. Nothing may land in Idle, and conservation holds.
    EXPECT_EQ(w._stall.count(StallClass::Busy), 2u);
    EXPECT_EQ(w._stall.count(StallClass::StallUpstream), 198u);
    EXPECT_EQ(w._stall.count(StallClass::Idle), 0u);
    u64 sum = 0;
    for (std::size_t i = 0; i < kNumStallClasses; ++i)
        sum += w._stall.count(static_cast<StallClass>(i));
    EXPECT_EQ(sum, sim.cycle());
}

TEST(EventKernel, PlantedLostWakeStallsTheConsumer)
{
    // The fault-injection hook behind soc_fuzz --plant-lost-wake:
    // dropping wake schedules must produce an observable difference
    // (here: lost deliveries), which is exactly what the differential
    // harness exists to catch.
    Simulator sim;
    TimedQueue<int> q(sim, 2);
    SleepyConsumer cons(sim, q);
    PulseProducer prod(sim, q, 7, 10);
    sim.setKernel(SimKernel::Event);
    sim.plantLostWakes(2); // drop every 2nd scheduled wake
    sim.run(200);
    EXPECT_LT(cons.popped(), 10);
}

/** Sleeps on its first tick and is never woken again. */
class Filler : public Module
{
  public:
    Filler(Simulator &sim, std::string name) : Module(sim, std::move(name))
    {
        declareSleepable();
    }
    void tick() override { requestSleep(); }
};

/** A SleepyConsumer that records the cycles it ticks and pops in. */
class RecordingConsumer : public Module
{
  public:
    RecordingConsumer(Simulator &sim, std::string name, TimedQueue<int> &in)
        : Module(sim, std::move(name)), _in(in)
    {
        declareSleepable();
        _in.setWakeOnPush(this);
    }

    void
    tick() override
    {
        ticks.push_back(sim().cycle());
        if (_in.canPop())
            pops.push_back({sim().cycle(), _in.pop()});
        else
            requestSleep();
    }

    std::vector<Cycle> ticks;
    std::vector<std::pair<Cycle, int>> pops;

  private:
    TimedQueue<int> &_in;
};

/** Pushes to every queue at each multiple of @p period, then sleeps. */
class FanoutProducer : public Module
{
  public:
    FanoutProducer(Simulator &sim, std::deque<TimedQueue<int>> &outs,
                   Cycle period, int count)
        : Module(sim, "fanout"), _outs(outs), _period(period),
          _left(count)
    {
        declareSleepable();
        declareSelfWake();
    }

    void
    tick() override
    {
        if (_left > 0 && sim().cycle() % _period == 0) {
            for (TimedQueue<int> &q : _outs)
                if (q.canPush())
                    q.push(_left);
            --_left;
        }
        if (_left > 0)
            requestWakeAt((sim().cycle() / _period + 1) * _period);
        requestSleep();
    }

  private:
    std::deque<TimedQueue<int>> &_outs;
    Cycle _period;
    int _left;
};

/**
 * 130 modules fill three mask words. The producer at index 70 feeds
 * consumers at 5 (already ticked: its push wake waits for the next
 * cycle), 71 and 127 (later in the producer's own word) and 128 (the
 * first bit of the next word); every other module sleeps for good.
 */
struct MaskFixture
{
    static constexpr std::size_t kModules = 130;
    static constexpr std::size_t kProducer = 70;
    static constexpr std::size_t kConsumerAt[] = {5, 71, 127, 128};

    explicit MaskFixture(SimKernel kernel)
    {
        for (std::size_t i = 0; i < std::size(kConsumerAt); ++i)
            queues.emplace_back(sim, 2);
        std::size_t next_queue = 0;
        for (std::size_t i = 0; i < kModules; ++i) {
            const std::string name = "m" + std::to_string(i);
            if (i == kProducer) {
                mods.push_back(std::make_unique<FanoutProducer>(
                    sim, queues, 7, 5));
            } else if (next_queue < std::size(kConsumerAt) &&
                       i == kConsumerAt[next_queue]) {
                auto c = std::make_unique<RecordingConsumer>(
                    sim, name, queues[next_queue++]);
                consumers.push_back(c.get());
                mods.push_back(std::move(c));
            } else {
                mods.push_back(std::make_unique<Filler>(sim, name));
            }
            EXPECT_EQ(mods.back()->index(), i);
        }
        sim.setKernel(kernel);
    }

    Simulator sim;
    std::deque<TimedQueue<int>> queues;
    std::vector<std::unique_ptr<Module>> mods;
    std::vector<RecordingConsumer *> consumers;
};

TEST(EventKernel, WakesAcrossMaskWordsMatchTick)
{
    MaskFixture tick(SimKernel::Tick), event(SimKernel::Event);
    tick.sim.run(60);
    event.sim.run(60);
    for (std::size_t c = 0; c < event.consumers.size(); ++c) {
        const RecordingConsumer &t = *tick.consumers[c];
        const RecordingConsumer &e = *event.consumers[c];
        EXPECT_EQ(e.pops, t.pops) << "consumer " << e.index();
        EXPECT_EQ(e.pops.size(), 5u) << "consumer " << e.index();
    }
    // Each push at cycle 7 wakes 71, 127 and 128 in place, so they
    // tick in cycle 7 (and pop in 8); 5 ticked before the producer,
    // so it first ticks in 8.
    auto ticked = [](const RecordingConsumer *c, Cycle at) {
        return std::find(c->ticks.begin(), c->ticks.end(), at) !=
               c->ticks.end();
    };
    EXPECT_FALSE(ticked(event.consumers[0], 7));
    EXPECT_TRUE(ticked(event.consumers[0], 8));
    for (std::size_t c = 1; c < event.consumers.size(); ++c) {
        EXPECT_TRUE(ticked(event.consumers[c], 7)) << c;
        EXPECT_TRUE(ticked(event.consumers[c], 8)) << c;
    }
}

TEST(EventKernel, NextCycleWakesArePendingNotActive)
{
    MaskFixture f(SimKernel::Event);
    // Cycle 0: every module ticks once and sleeps; the producer's
    // pushes leave each consumer a next-cycle wake and the producer
    // its wheel wake at cycle 7.
    f.sim.step();
    EXPECT_EQ(f.sim.activeModules(), 0u);
    EXPECT_EQ(f.sim.pendingWakes(), 5u);
    // Cycle 1: the next-cycle wakes are taken in, and every consumer
    // pops and stays awake.
    f.sim.step();
    EXPECT_EQ(f.sim.activeModules(), 4u);
    EXPECT_EQ(f.sim.pendingWakes(), 1u);
    for (const RecordingConsumer *c : f.consumers)
        EXPECT_EQ(c->pops.size(), 1u) << "consumer " << c->index();
}

} // namespace
} // namespace beethoven
