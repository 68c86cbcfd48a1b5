/**
 * @file
 * Device-topology-aware tree networks.
 *
 * Beethoven "constructs a subnetwork for endpoints on the same SLR and
 * then connects these subnetworks with appropriate buffering to account
 * for the high cross-SLR delays. Each subnetwork is itself a tree
 * structure where the internal nodes are buffers." (Section II-B.)
 *
 * MuxTree aggregates many producer endpoints toward one consumer (the
 * memory controller's AR/W ports, the host's response port); DemuxTree
 * distributes one producer's flits to many endpoints (R/B data return,
 * command delivery). Every internal node moves at most one flit per
 * cycle, so bandwidth contention and tree depth latency are emergent
 * rather than scripted. Fan-out and crossing latency are platform
 * elaboration knobs (Section II-B, "Platform Development").
 */

#ifndef BEETHOVEN_NOC_TREE_H
#define BEETHOVEN_NOC_TREE_H

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/log.h"
#include "base/stats.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

/** Elaboration knobs for tree networks. */
struct NocParams
{
    unsigned fanout = 4;              ///< max children per tree node
    unsigned slrCrossingLatency = 4;  ///< extra buffering on crossings
    std::size_t queueDepth = 2;       ///< per-link queue depth
};

/** Default lock policy: every flit arbitrates independently. */
template <typename F>
struct NoLock
{
    unsigned operator()(const F &) const { return 0; }
};

/**
 * Round-robin arbiter moving one flit per cycle from its inputs to a
 * single output, with optional burst locking: when the lock policy
 * returns N > 0 for a forwarded flit, the next N flits are taken from
 * the same input (used to keep AXI write bursts contiguous).
 */
template <typename F, typename Lock = NoLock<F>>
class MuxNode : public Module
{
  public:
    MuxNode(Simulator &sim, std::string name, TimedQueue<F> *out,
            Lock lock = Lock{})
        : Module(sim, std::move(name)), _out(out), _lock(std::move(lock)),
          _stall(sim, Module::name())
    {
        declareRole("noc-mux");
        declareSleepable();
        _out->setWakeOnPop(this);
    }

    void
    addInput(TimedQueue<F> *in)
    {
        in->setWakeOnPush(this);
        _inputs.push_back(in);
    }

    std::size_t numInputs() const { return _inputs.size(); }

    void
    tick() override
    {
        if (!_out->canPush()) {
            // Backpressured: the link below us is the bottleneck iff we
            // actually had a flit to forward.
            bool pending = false;
            if (_lockRemaining > 0) {
                pending = _inputs[_lockedInput]->canPop();
            } else {
                for (TimedQueue<F> *in : _inputs) {
                    if (in->canPop()) {
                        pending = true;
                        break;
                    }
                }
            }
            settle(pending ? StallClass::StallDownstream
                           : StallClass::Idle);
            return;
        }
        if (_lockRemaining > 0) {
            TimedQueue<F> *in = _inputs[_lockedInput];
            if (in->canPop()) {
                _out->push(in->pop());
                --_lockRemaining;
                ++_flits;
                _stall.account(StallClass::Busy);
            } else {
                // Mid-burst valid-wait on the locked input.
                settle(StallClass::StallUpstream);
            }
            return;
        }
        const std::size_t n = _inputs.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j = (_rr + i) % n;
            TimedQueue<F> *in = _inputs[j];
            if (!in->canPop())
                continue;
            F flit = in->pop();
            const unsigned lock_beats = _lock(flit);
            _out->push(std::move(flit));
            ++_flits;
            if (lock_beats > 0) {
                _lockRemaining = lock_beats;
                _lockedInput = j;
            } else {
                _rr = j + 1;
            }
            _stall.account(StallClass::Busy);
            return;
        }
        settle(StallClass::Idle);
    }

    /** Flits this node has forwarded. */
    double flits() const { return _flits; }

  private:
    /**
     * Non-forwarding cycle: every way out of this state is a queue
     * event on a wired input or the output, so quiesce until one fires.
     */
    void
    settle(StallClass c)
    {
        _stall.account(c);
        sleepWith(_stall, c);
    }

    std::vector<TimedQueue<F> *> _inputs;
    TimedQueue<F> *_out;
    Lock _lock;
    /** Node-local forwarded-flit count; the tree folds node counts
     *  into its published scalar at stat publication. */
    double _flits = 0.0;
    StallAccount _stall;
    std::size_t _rr = 0;
    unsigned _lockRemaining = 0;
    std::size_t _lockedInput = 0;
};

/**
 * Routes one input stream to many outputs, one flit per cycle, by a
 * routing key (global endpoint index) computed from each flit.
 */
template <typename F>
class DemuxNode : public Module
{
  public:
    using KeyFn = std::function<std::size_t(const F &)>;

    DemuxNode(Simulator &sim, std::string name, TimedQueue<F> *in,
              KeyFn key)
        : Module(sim, std::move(name)), _in(in), _key(std::move(key)),
          _stall(sim, Module::name())
    {
        declareRole("noc-demux");
        declareSleepable();
        _in->setWakeOnPush(this);
    }

    /** Declare that endpoint @p endpoint is reached through @p out. */
    void
    addRoute(std::size_t endpoint, TimedQueue<F> *out)
    {
        out->setWakeOnPop(this);
        _routes[endpoint] = out;
    }

    void
    tick() override
    {
        if (!_in->canPop()) {
            _stall.account(StallClass::Idle);
            sleepWith(_stall, StallClass::Idle);
            return;
        }
        const std::size_t key = _key(_in->front());
        auto it = _routes.find(key);
        beethoven_assert(it != _routes.end(),
                         "no route for endpoint %zu at %s", key,
                         name().c_str());
        if (it->second->canPush()) {
            it->second->push(_in->pop());
            ++_flits;
            _stall.account(StallClass::Busy);
        } else {
            _stall.account(StallClass::StallDownstream);
            sleepWith(_stall, StallClass::StallDownstream);
        }
    }

    /** Flits this node has forwarded. */
    double flits() const { return _flits; }

  private:
    TimedQueue<F> *_in;
    KeyFn _key;
    /** Node-local forwarded-flit count; folded at stat publication. */
    double _flits = 0.0;
    StallAccount _stall;
    std::map<std::size_t, TimedQueue<F> *> _routes;
};

/** Moves one flit per cycle between two queues (a register slice). */
template <typename F>
class QueuePump : public Module
{
  public:
    QueuePump(Simulator &sim, std::string name, TimedQueue<F> *src,
              TimedQueue<F> *dst)
        : Module(sim, std::move(name)), _src(src), _dst(dst),
          _stall(sim, Module::name())
    {
        declareRole("pump");
        declareSleepable();
        _src->setWakeOnPush(this);
        _dst->setWakeOnPop(this);
    }

    void
    tick() override
    {
        if (_src->canPop() && _dst->canPush()) {
            _dst->push(_src->pop());
            _stall.account(StallClass::Busy);
        } else if (_src->canPop()) {
            _stall.account(StallClass::StallDownstream);
            sleepWith(_stall, StallClass::StallDownstream);
        } else {
            _stall.account(StallClass::Idle);
            sleepWith(_stall, StallClass::Idle);
        }
    }

  private:
    TimedQueue<F> *_src;
    TimedQueue<F> *_dst;
    StallAccount _stall;
};

/** Construction summary, used for interconnect resource estimation. */
struct TreeStats
{
    std::size_t nodes = 0;
    std::size_t links = 0;
    std::size_t slrCrossings = 0;
};

/**
 * A many-to-one aggregation tree with per-SLR subtrees.
 *
 * Producers push into endpointPort(i); flits pop out of the consumer
 * queue passed at construction.
 */
template <typename F, typename Lock = NoLock<F>>
class MuxTree
{
  public:
    /**
     * @param endpoint_slr  SLR index of each endpoint, in endpoint order
     * @param root_slr      SLR where the consumer (e.g. DDR port) lives
     * @param out           consumer queue the tree root feeds
     */
    MuxTree(Simulator &sim, const std::string &name,
            const std::vector<unsigned> &endpoint_slr, unsigned root_slr,
            const NocParams &params, TimedQueue<F> *out,
            Lock lock = Lock{})
    {
        beethoven_assert(!endpoint_slr.empty(),
                         "MuxTree %s with no endpoints", name.c_str());
        _endpointQueues.resize(endpoint_slr.size());
        _flits = &sim.stats().groupByPath(name).scalar("flits");

        // Group endpoints by SLR.
        std::map<unsigned, std::vector<std::size_t>> by_slr;
        for (std::size_t i = 0; i < endpoint_slr.size(); ++i)
            by_slr[endpoint_slr[i]].push_back(i);

        auto *root = makeNode(sim, name + ".root", out, lock);
        for (auto &[slr, endpoints] : by_slr) {
            // The SLR subtree feeds the root through a link that models
            // the SLR-crossing buffers when slr != root_slr. Crossing
            // buffers are pipelined register chains, so the link must
            // hold at least `latency` flits in flight or it would
            // throttle bandwidth to depth/latency.
            const unsigned link_latency =
                slr == root_slr ? 1 : params.slrCrossingLatency;
            auto *link = makeQueue(
                sim, name + ".slr" + std::to_string(slr) + ".link",
                std::max<std::size_t>(params.queueDepth,
                                      link_latency + 1),
                link_latency);
            if (slr != root_slr)
                ++_stats.slrCrossings;
            root->addInput(link);
            buildSubtree(sim, name + ".slr" + std::to_string(slr),
                         endpoints, params, link, lock);
        }
        // Fold node-local counters into the published scalar whenever
        // stats are emitted; exact because the locals hold integers.
        sim.addStatFolder([this] { _flits->set(flits()); });
    }

    /** The queue endpoint @p idx pushes its flits into. */
    TimedQueue<F> &
    endpointPort(std::size_t idx)
    {
        beethoven_assert(idx < _endpointQueues.size(),
                         "endpoint index %zu out of range", idx);
        return *_endpointQueues[idx];
    }

    /** Cumulative node-hops forwarded through this tree. */
    double
    flits() const
    {
        double total = 0.0;
        for (const auto &n : _nodes)
            total += n->flits();
        return total;
    }

    const TreeStats &stats() const { return _stats; }

    /** Flits currently buffered in the tree's internal links. */
    std::size_t
    occupancy() const
    {
        std::size_t total = 0;
        for (const auto &q : _queues)
            total += q->occupancy();
        return total;
    }

    /** Visit each internal link as (name, current occupancy). */
    void
    visitLinkOccupancy(
        const std::function<void(const std::string &, std::size_t)> &fn)
        const
    {
        for (std::size_t i = 0; i < _queues.size(); ++i)
            fn(_linkNames[i], _queues[i]->occupancy());
    }

  private:
    MuxNode<F, Lock> *
    makeNode(Simulator &sim, const std::string &name, TimedQueue<F> *out,
             const Lock &lock)
    {
        _nodes.push_back(std::make_unique<MuxNode<F, Lock>>(
            sim, name, out, lock));
        ++_stats.nodes;
        return _nodes.back().get();
    }

    TimedQueue<F> *
    makeQueue(Simulator &sim, const std::string &name, std::size_t depth,
              unsigned latency)
    {
        _queues.push_back(
            std::make_unique<TimedQueue<F>>(sim, depth, latency));
        _linkNames.push_back(name);
        ++_stats.links;
        return _queues.back().get();
    }

    /** Build a fanout-bounded subtree over @p endpoints feeding @p out. */
    void
    buildSubtree(Simulator &sim, const std::string &name,
                 const std::vector<std::size_t> &endpoints,
                 const NocParams &params, TimedQueue<F> *out,
                 const Lock &lock)
    {
        auto *node = makeNode(sim, name, out, lock);
        if (endpoints.size() <= params.fanout) {
            for (std::size_t e : endpoints) {
                auto *q = makeQueue(
                    sim, name + ".ep" + std::to_string(e),
                    params.queueDepth, 1);
                node->addInput(q);
                _endpointQueues[e] = q;
            }
            return;
        }
        // Split endpoints into fanout groups, each a child subtree.
        const std::size_t groups = params.fanout;
        const std::size_t per =
            (endpoints.size() + groups - 1) / groups;
        for (std::size_t g = 0; g * per < endpoints.size(); ++g) {
            std::vector<std::size_t> sub(
                endpoints.begin() + g * per,
                endpoints.begin() +
                    std::min(endpoints.size(), (g + 1) * per));
            auto *q = makeQueue(
                sim, name + "." + std::to_string(g) + ".link",
                params.queueDepth, 1);
            node->addInput(q);
            buildSubtree(sim, name + "." + std::to_string(g), sub,
                         params, q, lock);
        }
    }

    std::vector<std::unique_ptr<MuxNode<F, Lock>>> _nodes;
    std::vector<std::unique_ptr<TimedQueue<F>>> _queues;
    std::vector<std::string> _linkNames; ///< parallel to _queues
    std::vector<TimedQueue<F> *> _endpointQueues;
    StatScalar *_flits = nullptr;
    TreeStats _stats;
};

/**
 * A one-to-many distribution tree with per-SLR subtrees.
 *
 * The producer pushes into rootPort(); endpoint @p i pops from
 * endpointPort(i). Flits are routed by the key function, which must
 * return the global endpoint index.
 */
template <typename F>
class DemuxTree
{
  public:
    using KeyFn = std::function<std::size_t(const F &)>;

    DemuxTree(Simulator &sim, const std::string &name,
              const std::vector<unsigned> &endpoint_slr,
              unsigned root_slr, const NocParams &params, KeyFn key)
        : _key(std::move(key))
    {
        beethoven_assert(!endpoint_slr.empty(),
                         "DemuxTree %s with no endpoints", name.c_str());
        _endpointQueues.resize(endpoint_slr.size());
        _flits = &sim.stats().groupByPath(name).scalar("flits");
        _rootQueue = makeQueue(sim, name + ".rootq", params.queueDepth, 1);

        std::map<unsigned, std::vector<std::size_t>> by_slr;
        for (std::size_t i = 0; i < endpoint_slr.size(); ++i)
            by_slr[endpoint_slr[i]].push_back(i);

        auto *root = makeNode(sim, name + ".root", _rootQueue);
        for (auto &[slr, endpoints] : by_slr) {
            const unsigned link_latency =
                slr == root_slr ? 1 : params.slrCrossingLatency;
            // Pipelined crossing: depth must cover the latency.
            auto *link = makeQueue(
                sim, name + ".slr" + std::to_string(slr) + ".link",
                std::max<std::size_t>(params.queueDepth,
                                      link_latency + 1),
                link_latency);
            if (slr != root_slr)
                ++_stats.slrCrossings;
            for (std::size_t e : endpoints)
                root->addRoute(e, link);
            buildSubtree(sim, name + ".slr" + std::to_string(slr),
                         endpoints, params, link);
        }
        // Fold node-local counters into the published scalar whenever
        // stats are emitted; exact because the locals hold integers.
        sim.addStatFolder([this] { _flits->set(flits()); });
    }

    TimedQueue<F> &rootPort() { return *_rootQueue; }

    TimedQueue<F> &
    endpointPort(std::size_t idx)
    {
        beethoven_assert(idx < _endpointQueues.size(),
                         "endpoint index %zu out of range", idx);
        return *_endpointQueues[idx];
    }

    /** Cumulative node-hops forwarded through this tree. */
    double
    flits() const
    {
        double total = 0.0;
        for (const auto &n : _nodes)
            total += n->flits();
        return total;
    }

    const TreeStats &stats() const { return _stats; }

    /** Flits currently buffered in the tree's internal links. */
    std::size_t
    occupancy() const
    {
        std::size_t total = 0;
        for (const auto &q : _queues)
            total += q->occupancy();
        return total;
    }

    /** Visit each internal link as (name, current occupancy). */
    void
    visitLinkOccupancy(
        const std::function<void(const std::string &, std::size_t)> &fn)
        const
    {
        for (std::size_t i = 0; i < _queues.size(); ++i)
            fn(_linkNames[i], _queues[i]->occupancy());
    }

  private:
    DemuxNode<F> *
    makeNode(Simulator &sim, const std::string &name, TimedQueue<F> *in)
    {
        _nodes.push_back(
            std::make_unique<DemuxNode<F>>(sim, name, in, _key));
        ++_stats.nodes;
        return _nodes.back().get();
    }

    TimedQueue<F> *
    makeQueue(Simulator &sim, const std::string &name, std::size_t depth,
              unsigned latency)
    {
        _queues.push_back(
            std::make_unique<TimedQueue<F>>(sim, depth, latency));
        _linkNames.push_back(name);
        ++_stats.links;
        return _queues.back().get();
    }

    void
    buildSubtree(Simulator &sim, const std::string &name,
                 const std::vector<std::size_t> &endpoints,
                 const NocParams &params, TimedQueue<F> *in)
    {
        auto *node = makeNode(sim, name, in);
        if (endpoints.size() <= params.fanout) {
            for (std::size_t e : endpoints) {
                auto *q = makeQueue(
                    sim, name + ".ep" + std::to_string(e),
                    params.queueDepth, 1);
                node->addRoute(e, q);
                _endpointQueues[e] = q;
            }
            return;
        }
        const std::size_t groups = params.fanout;
        const std::size_t per =
            (endpoints.size() + groups - 1) / groups;
        for (std::size_t g = 0; g * per < endpoints.size(); ++g) {
            std::vector<std::size_t> sub(
                endpoints.begin() + g * per,
                endpoints.begin() +
                    std::min(endpoints.size(), (g + 1) * per));
            auto *q = makeQueue(
                sim, name + "." + std::to_string(g) + ".link",
                params.queueDepth, 1);
            for (std::size_t e : sub)
                node->addRoute(e, q);
            buildSubtree(sim, name + "." + std::to_string(g), sub,
                         params, q);
        }
    }

    KeyFn _key;
    TimedQueue<F> *_rootQueue = nullptr;
    std::vector<std::unique_ptr<DemuxNode<F>>> _nodes;
    std::vector<std::unique_ptr<TimedQueue<F>>> _queues;
    std::vector<std::string> _linkNames; ///< parallel to _queues
    std::vector<TimedQueue<F> *> _endpointQueues;
    StatScalar *_flits = nullptr;
    TreeStats _stats;
};

} // namespace beethoven

#endif // BEETHOVEN_NOC_TREE_H
