/**
 * @file
 * Tests for the SLR-aware tree networks: delivery, fairness, write
 * burst locking, routing, crossing latency, and construction stats.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "axi/axi_types.h"
#include "noc/tree.h"

namespace beethoven
{
namespace
{

struct Flit
{
    std::size_t src = 0;
    std::size_t dst = 0;
    unsigned seq = 0;
};

TEST(MuxTree, DeliversEverythingFromManyEndpoints)
{
    Simulator sim;
    TimedQueue<Flit> out(sim, 4);
    const std::vector<unsigned> slrs = {0, 0, 1, 1, 2, 2, 2, 1};
    NocParams params;
    MuxTree<Flit> tree(sim, "mux", slrs, 1, params, &out);

    std::map<std::size_t, unsigned> sent;
    std::size_t received = 0;
    std::map<std::size_t, unsigned> last_seen;
    const Cycle start = sim.cycle();
    // Interleave pushing and draining: the root output must be popped
    // or the tree backpressures all the way to the endpoints.
    while (received < slrs.size() * 5 &&
           sim.cycle() - start < 10000) {
        for (std::size_t e = 0; e < slrs.size(); ++e) {
            if (sent[e] < 5 && tree.endpointPort(e).canPush())
                tree.endpointPort(e).push({e, 0, sent[e]++});
        }
        if (out.canPop()) {
            const Flit f = out.pop();
            // Per-source order must be preserved.
            auto it = last_seen.find(f.src);
            if (it != last_seen.end()) {
                EXPECT_GT(f.seq, it->second);
            }
            last_seen[f.src] = f.seq;
            ++received;
        }
        sim.step();
    }
    EXPECT_EQ(received, slrs.size() * 5);
}

TEST(MuxTree, RoundRobinIsFair)
{
    Simulator sim;
    TimedQueue<Flit> out(sim, 2);
    const std::vector<unsigned> slrs = {0, 0, 0, 0};
    NocParams params;
    MuxTree<Flit> tree(sim, "mux", slrs, 0, params, &out);

    // Saturate all endpoints and count deliveries per source.
    std::map<std::size_t, unsigned> sent, delivered;
    for (Cycle c = 0; c < 400; ++c) {
        for (std::size_t e = 0; e < slrs.size(); ++e) {
            if (tree.endpointPort(e).canPush()) {
                tree.endpointPort(e).push({e, 0, sent[e]++});
            }
        }
        if (out.canPop())
            ++delivered[out.pop().src];
        sim.step();
    }
    unsigned min = ~0u, max = 0;
    for (std::size_t e = 0; e < slrs.size(); ++e) {
        min = std::min(min, delivered[e]);
        max = std::max(max, delivered[e]);
    }
    EXPECT_GT(min, 0u);
    EXPECT_LE(max - min, max / 4 + 2) << "arbitration is unfair";
}

TEST(MuxTree, WriteFlitBurstsStayContiguous)
{
    Simulator sim;
    TimedQueue<WriteFlit> out(sim, 2);
    const std::vector<unsigned> slrs = {0, 0};
    NocParams params;
    MuxTree<WriteFlit, WriteFlitLock> tree(sim, "wmux", slrs, 0, params,
                                           &out, WriteFlitLock{});

    // Two endpoints each stream a 4-beat burst concurrently.
    auto push_burst = [&](std::size_t e, u64 tag, unsigned &beat) {
        if (beat >= 4 || !tree.endpointPort(e).canPush())
            return;
        WriteFlit f;
        if (beat == 0) {
            f.hasHeader = true;
            f.header.tag = tag;
            f.header.beats = 4;
        }
        f.beat.last = beat == 3;
        f.beat.data.assign(1, static_cast<u8>(tag));
        tree.endpointPort(e).push(std::move(f));
        ++beat;
    };
    unsigned beats0 = 0, beats1 = 0;
    std::vector<u8> arrival;
    for (Cycle c = 0; c < 200; ++c) {
        push_burst(0, 10, beats0);
        push_burst(1, 20, beats1);
        if (out.canPop())
            arrival.push_back(out.pop().beat.data[0]);
        sim.step();
    }
    ASSERT_EQ(arrival.size(), 8u);
    // All four beats of one burst must be contiguous.
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(arrival[i], arrival[0]);
    for (unsigned i = 5; i < 8; ++i)
        EXPECT_EQ(arrival[i], arrival[4]);
    EXPECT_NE(arrival[0], arrival[4]);
}

TEST(DemuxTree, RoutesByKey)
{
    Simulator sim;
    const std::vector<unsigned> slrs = {0, 1, 2, 2, 1};
    NocParams params;
    DemuxTree<Flit> tree(sim, "demux", slrs, 0, params,
                         [](const Flit &f) { return f.dst; });
    for (std::size_t d = 0; d < slrs.size(); ++d) {
        while (!tree.rootPort().canPush())
            sim.step();
        tree.rootPort().push({0, d, static_cast<unsigned>(d)});
        sim.step();
    }
    std::size_t received = 0;
    const Cycle start = sim.cycle();
    while (received < slrs.size() && sim.cycle() - start < 1000) {
        for (std::size_t e = 0; e < slrs.size(); ++e) {
            if (tree.endpointPort(e).canPop()) {
                EXPECT_EQ(tree.endpointPort(e).pop().dst, e);
                ++received;
            }
        }
        sim.step();
    }
    EXPECT_EQ(received, slrs.size());
}

TEST(Trees, CrossSlrPathIsSlower)
{
    // Endpoint on the root SLR vs endpoint across a crossing: the
    // remote one must see strictly higher latency.
    auto latency_to = [](unsigned endpoint_slr) {
        Simulator sim;
        TimedQueue<Flit> out(sim, 4);
        NocParams params;
        params.slrCrossingLatency = 6;
        const std::vector<unsigned> slrs = {endpoint_slr};
        MuxTree<Flit> tree(sim, "mux", slrs, 0, params, &out);
        tree.endpointPort(0).push({0, 0, 1});
        const Cycle start = sim.cycle();
        while (!out.canPop()) {
            sim.step();
            if (sim.cycle() - start > 100)
                break;
        }
        return sim.cycle() - start;
    };
    EXPECT_LT(latency_to(0), latency_to(2));
    EXPECT_GE(latency_to(2), 6u);
}

TEST(Trees, StatsCountNodesAndCrossings)
{
    Simulator sim;
    TimedQueue<Flit> out(sim, 4);
    NocParams params;
    params.fanout = 2;
    const std::vector<unsigned> slrs = {0, 0, 0, 0, 1, 1, 2};
    MuxTree<Flit> tree(sim, "mux", slrs, 0, params, &out);
    // Root + per-SLR subtrees; SLR1 and SLR2 cross to root SLR0.
    EXPECT_EQ(tree.stats().slrCrossings, 2u);
    EXPECT_GE(tree.stats().nodes, 4u);
    EXPECT_GE(tree.stats().links, slrs.size());
}

TEST(Trees, MuxAndDemuxShareOneShape)
{
    Simulator sim;
    TimedQueue<Flit> out(sim, 4);
    NocParams params;
    params.fanout = 2;
    const std::vector<unsigned> slrs = {0, 2, 0, 1, 0, 1, 2, 0, 0};
    MuxTree<Flit> mux(sim, "mux", slrs, 1, params, &out);
    DemuxTree<Flit> demux(sim, "demux", slrs, 1, params,
                          [](const Flit &f) { return f.dst; });
    EXPECT_EQ(mux.stats().nodes, demux.stats().nodes);
    EXPECT_EQ(mux.stats().slrCrossings, 2u);
    EXPECT_EQ(demux.stats().slrCrossings, mux.stats().slrCrossings);
    // The demux alone owns a root queue for its producer.
    EXPECT_EQ(demux.stats().links, mux.stats().links + 1);

    auto link_names = [](const auto &tree, const std::string &prefix) {
        std::vector<std::string> names;
        tree.visitLinkOccupancy(
            [&](const std::string &name, std::size_t) {
                EXPECT_EQ(name.rfind(prefix, 0), 0u) << name;
                names.push_back(name.substr(prefix.size()));
            });
        return names;
    };
    std::vector<std::string> demux_links = link_names(demux, "demux");
    ASSERT_FALSE(demux_links.empty());
    EXPECT_EQ(demux_links.front(), ".rootq");
    demux_links.erase(demux_links.begin());
    EXPECT_EQ(link_names(mux, "mux"), demux_links);
}

TEST(Trees, CrossingSustainsOneFlitPerCycle)
{
    // Link queues shallower than the crossing latency: the builder
    // still sizes each crossing to keep one flit per cycle moving, in
    // both directions, so a remote endpoint's stream takes its length
    // plus a few crossing latencies.
    constexpr unsigned kFlits = 200;
    NocParams params;
    params.queueDepth = 2;
    params.slrCrossingLatency = 4;
    const Cycle bound = kFlits + 4 * params.slrCrossingLatency;
    const std::vector<unsigned> remote = {1};

    {
        Simulator sim;
        TimedQueue<Flit> out(sim, 2);
        MuxTree<Flit> mux(sim, "mux", remote, 0, params, &out);
        unsigned sent = 0, received = 0;
        Cycle cycles = 0;
        for (; received < kFlits && cycles < 4 * kFlits; ++cycles) {
            if (sent < kFlits && mux.endpointPort(0).canPush())
                mux.endpointPort(0).push({0, 0, sent++});
            if (out.canPop()) {
                out.pop();
                ++received;
            }
            sim.step();
        }
        EXPECT_EQ(received, kFlits);
        EXPECT_LE(cycles, bound) << "mux";
    }
    {
        Simulator sim;
        DemuxTree<Flit> demux(sim, "demux", remote, 0, params,
                              [](const Flit &f) { return f.dst; });
        unsigned sent = 0, received = 0;
        Cycle cycles = 0;
        for (; received < kFlits && cycles < 4 * kFlits; ++cycles) {
            if (sent < kFlits && demux.rootPort().canPush())
                demux.rootPort().push({0, 0, sent++});
            if (demux.endpointPort(0).canPop()) {
                demux.endpointPort(0).pop();
                ++received;
            }
            sim.step();
        }
        EXPECT_EQ(received, kFlits);
        EXPECT_LE(cycles, bound) << "demux";
    }
}

TEST(Trees, LargeFanoutRespectsLimit)
{
    Simulator sim;
    TimedQueue<Flit> out(sim, 4);
    NocParams params;
    params.fanout = 3;
    std::vector<unsigned> slrs(30, 0);
    MuxTree<Flit> tree(sim, "mux", slrs, 0, params, &out);
    // 30 endpoints at fanout 3 needs at least ceil(log3(30)) levels.
    EXPECT_GE(tree.stats().nodes, 10u);
    // Everything still delivers.
    for (std::size_t e = 0; e < slrs.size(); ++e)
        tree.endpointPort(e).push({e, 0, 0});
    unsigned received = 0;
    for (Cycle c = 0; c < 500 && received < 30; ++c) {
        if (out.canPop()) {
            out.pop();
            ++received;
        }
        sim.step();
    }
    EXPECT_EQ(received, 30u);
}

TEST(QueuePump, MovesOneFlitPerCycle)
{
    Simulator sim;
    TimedQueue<int> a(sim, 8), b(sim, 8);
    QueuePump<int> pump(sim, "pump", &a, &b);
    for (int i = 0; i < 5; ++i)
        a.push(i);
    sim.run(12);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(b.canPop());
        EXPECT_EQ(b.pop(), i);
    }
}

} // namespace
} // namespace beethoven
