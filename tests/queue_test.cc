/**
 * @file
 * Tests for the TimedQueue channel primitive — the semantics the whole
 * simulation's determinism rests on.
 */

#include <gtest/gtest.h>

#include "sim/queue.h"

namespace beethoven
{
namespace
{

/** A module-free driver: cycles advance by stepping the simulator. */
struct QueueHarness
{
    Simulator sim;
};

TEST(TimedQueue, PushVisibleAfterLatency)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 4, 1);
    q.push(42);
    EXPECT_FALSE(q.canPop()) << "pushes must not be visible same cycle";
    h.sim.step();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.front(), 42);
}

class QueueLatency : public ::testing::TestWithParam<unsigned>
{};

TEST_P(QueueLatency, VisibilityDelayedExactly)
{
    const unsigned latency = GetParam();
    QueueHarness h;
    TimedQueue<int> q(h.sim, 8, latency);
    q.push(7);
    h.sim.step(); // the push cycle ends
    for (unsigned c = 1; c < latency; ++c) {
        EXPECT_FALSE(q.canPop()) << "visible too early at +" << c;
        h.sim.step();
    }
    EXPECT_TRUE(q.canPop());
}

INSTANTIATE_TEST_SUITE_P(Latencies, QueueLatency,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(TimedQueue, CapacityIncludesPending)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 2);
    q.push(1);
    EXPECT_TRUE(q.canPush());
    q.push(2);
    EXPECT_FALSE(q.canPush()) << "pending pushes occupy space";
}

TEST(TimedQueue, PopFreesSpaceNextCycleOnly)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 1);
    q.push(1);
    h.sim.step();
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 1);
    // Registered occupancy: space frees only when the cycle ends.
    EXPECT_FALSE(q.canPush());
    h.sim.step();
    EXPECT_TRUE(q.canPush());
}

TEST(TimedQueue, FifoOrder)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 16);
    for (int i = 0; i < 10; ++i)
        q.push(i);
    h.sim.step();
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.canPop());
        EXPECT_EQ(q.pop(), i);
    }
    EXPECT_FALSE(q.canPop());
}

TEST(TimedQueue, VisibleSizeTracksLatency)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 8, 2);
    q.push(1);
    h.sim.step();
    q.push(2);
    h.sim.step();
    // First push now visible (latency 2), second not yet.
    EXPECT_EQ(q.visibleSize(), 1u);
    EXPECT_EQ(q.occupancy(), 2u);
    h.sim.step();
    EXPECT_EQ(q.visibleSize(), 2u);
}

TEST(TimedQueue, MoveOnlyPayloads)
{
    QueueHarness h;
    TimedQueue<std::unique_ptr<int>> q(h.sim, 2);
    q.push(std::make_unique<int>(9));
    h.sim.step();
    auto p = q.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 9);
}

TEST(TimedQueue, RingWrapsAtCapacityWithLatency)
{
    // Capacity 3, latency 3: a consumer that pops every entry the
    // cycle it turns visible and a producer that pushes whenever there
    // is room wrap the 3-slot ring several times; every entry arrives
    // in order exactly `latency` cycles after its push.
    QueueHarness h;
    TimedQueue<int> q(h.sim, 3, 3);
    std::vector<Cycle> pushed_at;
    std::vector<std::pair<Cycle, int>> popped;
    for (int c = 0; c < 40; ++c) {
        if (q.canPop())
            popped.emplace_back(h.sim.cycle(), q.pop());
        if (q.canPush()) {
            q.push(int(pushed_at.size()));
            pushed_at.push_back(h.sim.cycle());
        }
        EXPECT_LE(q.occupancy(), 3u);
        h.sim.step();
    }
    ASSERT_GE(popped.size(), 9u) << "the ring must wrap at least twice";
    for (std::size_t i = 0; i < popped.size(); ++i) {
        EXPECT_EQ(popped[i].second, int(i));
        EXPECT_EQ(popped[i].first, pushed_at[i] + 3) << "entry " << i;
    }
    // The first three pushes fill the ring; the pop at cycle 3 frees
    // a slot only from cycle 4.
    EXPECT_EQ(pushed_at[2], 2u);
    EXPECT_EQ(pushed_at[3], 4u);
}

TEST(TimedQueue, SpaceFreedAfterWrapVisibleNextCycle)
{
    QueueHarness h;
    TimedQueue<int> q(h.sim, 2, 1);
    q.push(0);
    q.push(1);
    h.sim.step();
    EXPECT_EQ(q.pop(), 0);
    EXPECT_FALSE(q.canPush());
    h.sim.step();
    q.push(2); // lands in the ring's first slot again
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.canPush()) << "the pop's slot frees next cycle";
    EXPECT_EQ(q.occupancy(), 2u);
    h.sim.step();
    EXPECT_TRUE(q.canPush());
    EXPECT_EQ(q.occupancy(), 1u);
    EXPECT_EQ(q.pop(), 2);
}

TEST(TimedQueue, HostPushBeforeFirstStepVisibleAfterLatency)
{
    // Host code pushes outside any tick; before the first step() the
    // cycle is 0, so the entry is poppable at cycle `latency`. A host
    // push between steps is stamped with the cycle about to run.
    QueueHarness h;
    TimedQueue<int> q(h.sim, 4, 3);
    q.push(5);
    EXPECT_EQ(q.occupancy(), 1u);
    for (Cycle c = 0; c < 3; ++c) {
        EXPECT_FALSE(q.canPop()) << "visible too early at " << c;
        h.sim.step();
    }
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 5);
    q.push(6); // at cycle 3
    h.sim.run(2);
    EXPECT_FALSE(q.canPop());
    h.sim.step();
    EXPECT_EQ(h.sim.cycle(), 6u);
    ASSERT_TRUE(q.canPop());
    EXPECT_EQ(q.pop(), 6);
}

/**
 * Determinism: two producer/consumer module pairs with opposite
 * registration orders must produce identical traces.
 */
struct Producer : Module
{
    TimedQueue<int> &out;
    int next = 0;
    Producer(Simulator &s, TimedQueue<int> &q)
        : Module(s, "producer"), out(q)
    {}
    void
    tick() override
    {
        if (out.canPush())
            out.push(next++);
    }
};

struct Consumer : Module
{
    TimedQueue<int> &in;
    std::vector<std::pair<Cycle, int>> trace;
    Consumer(Simulator &s, TimedQueue<int> &q)
        : Module(s, "consumer"), in(q)
    {}
    void
    tick() override
    {
        if (in.canPop())
            trace.emplace_back(sim().cycle(), in.pop());
    }
};

TEST(TimedQueue, TickOrderIndependence)
{
    std::vector<std::pair<Cycle, int>> trace_a, trace_b;
    {
        Simulator sim;
        TimedQueue<int> q(sim, 2);
        Producer p(sim, q); // producer registered first
        Consumer c(sim, q);
        sim.run(50);
        trace_a = c.trace;
    }
    {
        Simulator sim;
        TimedQueue<int> q(sim, 2);
        Consumer c(sim, q); // consumer registered first
        Producer p(sim, q);
        sim.run(50);
        trace_b = c.trace;
    }
    EXPECT_EQ(trace_a, trace_b);
    EXPECT_GT(trace_a.size(), 20u) << "pipeline should stream";
}

TEST(Simulator, RunUntilStopsExactlyWhenSatisfied)
{
    Simulator sim;
    EXPECT_TRUE(sim.runUntil([&] { return sim.cycle() >= 10; }, 100));
    EXPECT_EQ(sim.cycle(), 10u);
    EXPECT_FALSE(sim.runUntil([] { return false; }, 5));
    EXPECT_EQ(sim.cycle(), 15u);
}

} // namespace
} // namespace beethoven
