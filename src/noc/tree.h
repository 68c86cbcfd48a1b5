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
#include <numeric>
#include <span>
#include <string>
#include <utility>
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
    using Param = Lock;

    MuxNode(Simulator &sim, std::string name, TimedQueue<F> *out,
            Lock lock = Lock{})
        : Module(sim, std::move(name)), _out(out), _lock(std::move(lock)),
          _stall(sim, Module::name())
    {
        declareRole("noc-mux");
        declareSleepable();
        _out->setWakeOnPop(this);
    }

    /** Take flits from child link @p in (whatever endpoints it serves). */
    void
    attach(TimedQueue<F> *in, std::span<const std::size_t>)
    {
        in->setWakeOnPush(this);
        _inputs.push_back(in);
    }

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
    using Param = KeyFn;

    DemuxNode(Simulator &sim, std::string name, TimedQueue<F> *in,
              KeyFn key)
        : Module(sim, std::move(name)), _in(in), _key(std::move(key)),
          _stall(sim, Module::name())
    {
        declareRole("noc-demux");
        declareSleepable();
        _in->setWakeOnPush(this);
    }

    /** Declare that @p endpoints are reached through child link @p out. */
    void
    attach(TimedQueue<F> *out, std::span<const std::size_t> endpoints)
    {
        out->setWakeOnPop(this);
        for (std::size_t e : endpoints)
            _routes[e] = out;
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
 * Depth a link of @p latency cycles needs to carry one flit per cycle,
 * and never less than @p depth. Crossing buffers are pipelined
 * register chains: a shallower link throttles bandwidth to
 * depth / (latency + 1).
 */
inline std::size_t
crossingDepth(std::size_t depth, unsigned latency)
{
    return std::max<std::size_t>(depth, latency + 1);
}

/**
 * The shape every fabric tree shares: one fanout-bounded subtree per
 * SLR, joined to a root node by links that model the SLR crossing
 * where a subtree's SLR is not the root's. A Node is built on its
 * root-side link and attaches each child link with the endpoints
 * reached through it; MuxTree and DemuxTree differ only in that node.
 */
template <typename F, typename Node>
class FabricTree
{
  public:
    FabricTree(const FabricTree &) = delete;
    FabricTree &operator=(const FabricTree &) = delete;

    /** The queue endpoint @p idx pushes into (mux) or pops from (demux). */
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
        for (const auto &q : _links)
            total += q->occupancy();
        return total;
    }

    /** Visit each internal link as (name, current occupancy). */
    void
    visitLinkOccupancy(
        const std::function<void(const std::string &, std::size_t)> &fn)
        const
    {
        for (std::size_t i = 0; i < _links.size(); ++i)
            fn(_linkNames[i], _links[i]->occupancy());
    }

  protected:
    FabricTree(Simulator &sim, const std::string &name,
               std::size_t n_endpoints, typename Node::Param param)
        : _param(std::move(param)), _endpointQueues(n_endpoints),
          _flits(&sim.stats().groupByPath(name).scalar("flits"))
    {
        beethoven_assert(n_endpoints > 0, "tree %s with no endpoints",
                         name.c_str());
    }

    /** Build the per-SLR subtrees under a root node on @p root_link. */
    void
    build(Simulator &sim, const std::string &name,
          const std::vector<unsigned> &endpoint_slr, unsigned root_slr,
          const NocParams &params, TimedQueue<F> *root_link)
    {
        // Endpoints in (SLR, index) order: each SLR's group is a run.
        std::vector<std::size_t> order(endpoint_slr.size());
        std::iota(order.begin(), order.end(), std::size_t(0));
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return std::pair(endpoint_slr[a], a) <
                             std::pair(endpoint_slr[b], b);
                  });
        Node *root = makeNode(sim, name + ".root", root_link);
        for (std::size_t lo = 0, hi = 0; lo < order.size(); lo = hi) {
            const unsigned slr = endpoint_slr[order[lo]];
            while (hi < order.size() && endpoint_slr[order[hi]] == slr)
                ++hi;
            const std::span<const std::size_t> group(&order[lo], hi - lo);
            const std::string sub = name + ".slr" + std::to_string(slr);
            const unsigned latency =
                slr == root_slr ? 1 : params.slrCrossingLatency;
            TimedQueue<F> *link =
                makeLink(sim, sub + ".link",
                         crossingDepth(params.queueDepth, latency), latency);
            if (slr != root_slr)
                ++_stats.slrCrossings;
            root->attach(link, group);
            buildSubtree(sim, sub, group, params, link);
        }
        // Fold node-local counters into the published scalar whenever
        // stats are emitted; exact because the locals hold integers.
        sim.addStatFolder([this] { _flits->set(flits()); });
    }

    TimedQueue<F> *
    makeLink(Simulator &sim, std::string name, std::size_t depth,
             unsigned latency)
    {
        _links.push_back(
            std::make_unique<TimedQueue<F>>(sim, depth, latency));
        _linkNames.push_back(std::move(name));
        ++_stats.links;
        return _links.back().get();
    }

  private:
    Node *
    makeNode(Simulator &sim, const std::string &name, TimedQueue<F> *link)
    {
        _nodes.push_back(std::make_unique<Node>(sim, name, link, _param));
        ++_stats.nodes;
        return _nodes.back().get();
    }

    /** A fanout-bounded subtree over @p endpoints on @p link. */
    void
    buildSubtree(Simulator &sim, const std::string &name,
                 std::span<const std::size_t> endpoints,
                 const NocParams &params, TimedQueue<F> *link)
    {
        Node *node = makeNode(sim, name, link);
        if (endpoints.size() <= params.fanout) {
            for (const std::size_t &e : endpoints) {
                TimedQueue<F> *q = makeLink(
                    sim, name + ".ep" + std::to_string(e),
                    params.queueDepth, 1);
                node->attach(q, std::span(&e, 1));
                _endpointQueues[e] = q;
            }
            return;
        }
        // Split the endpoints into fanout groups, each a child subtree.
        const std::size_t per =
            (endpoints.size() + params.fanout - 1) / params.fanout;
        for (std::size_t g = 0; g * per < endpoints.size(); ++g) {
            const auto sub = endpoints.subspan(
                g * per, std::min(per, endpoints.size() - g * per));
            const std::string child = name + "." + std::to_string(g);
            TimedQueue<F> *q =
                makeLink(sim, child + ".link", params.queueDepth, 1);
            node->attach(q, sub);
            buildSubtree(sim, child, sub, params, q);
        }
    }

    typename Node::Param _param;
    std::vector<std::unique_ptr<Node>> _nodes;
    std::vector<std::unique_ptr<TimedQueue<F>>> _links;
    std::vector<std::string> _linkNames; ///< parallel to _links
    std::vector<TimedQueue<F> *> _endpointQueues;
    StatScalar *_flits;
    TreeStats _stats;
};

/**
 * A many-to-one aggregation tree with per-SLR subtrees.
 *
 * Producers push into endpointPort(i); flits pop out of the consumer
 * queue passed at construction.
 */
template <typename F, typename Lock = NoLock<F>>
class MuxTree : public FabricTree<F, MuxNode<F, Lock>>
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
        : FabricTree<F, MuxNode<F, Lock>>(sim, name, endpoint_slr.size(),
                                          std::move(lock))
    {
        this->build(sim, name, endpoint_slr, root_slr, params, out);
    }
};

/**
 * A one-to-many distribution tree with per-SLR subtrees.
 *
 * The producer pushes into rootPort(); endpoint @p i pops from
 * endpointPort(i). Flits are routed by the key function, which must
 * return the global endpoint index.
 */
template <typename F>
class DemuxTree : public FabricTree<F, DemuxNode<F>>
{
  public:
    using KeyFn = typename DemuxNode<F>::KeyFn;

    DemuxTree(Simulator &sim, const std::string &name,
              const std::vector<unsigned> &endpoint_slr,
              unsigned root_slr, const NocParams &params, KeyFn key)
        : FabricTree<F, DemuxNode<F>>(sim, name, endpoint_slr.size(),
                                      std::move(key)),
          _rootQueue(
              this->makeLink(sim, name + ".rootq", params.queueDepth, 1))
    {
        this->build(sim, name, endpoint_slr, root_slr, params,
                    _rootQueue);
    }

    TimedQueue<F> &rootPort() { return *_rootQueue; }

  private:
    TimedQueue<F> *_rootQueue;
};

} // namespace beethoven

#endif // BEETHOVEN_NOC_TREE_H
