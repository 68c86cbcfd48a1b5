/**
 * @file
 * Wake-contract and livelock rules (the "graph" layer, BTH100–BTH106).
 *
 * These rules prove the event kernel's wake/sleep contract over the
 * SimGraph IR: a module that declares it may sleep must be provably
 * re-armable by some wake source, wake wiring must point at the module
 * that actually consumes the queue, and no chain of armed wakes may
 * form a zero-latency (same-cycle) cycle. The lost-wake bugs the
 * differential fuzz harness catches dynamically (--plant-lost-wake)
 * become elaboration-time diagnostics here.
 */

#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "lint/lint.h"

namespace beethoven
{
namespace analysis
{

namespace
{

using lint::DiagnosticReport;

std::string
moduleRef(const SimGraph &g, int idx)
{
    if (idx == kNoIndex)
        return "<none>";
    return g.modules[idx].name;
}

/** BTH100: sleepable consumer of a queue with no armed push-wake. */
void
rulePushWakeSoundness(const SimGraph &g,
                      const lint::CompositionModel *,
                      DiagnosticReport &rep)
{
    for (const GraphEdge &e : g.edges) {
        if (e.consumer == kNoIndex || e.pushWakeArmed)
            continue;
        const GraphModule &m = g.modules[e.consumer];
        if (!m.sleepable)
            continue;
        auto &d = rep.add("BTH100", m.name,
                          "queue at " + e.site +
                              " feeds sleepable module '" + m.name +
                              "' (sleep declared at " + m.sleepSite +
                              ") but no push-wake is armed");
        d.note = "a push while the consumer sleeps is a lost wake: the "
                 "consumer never observes the entry and the "
                 "simulation hangs or diverges from the tick kernel";
        d.fixit = "arm setWakeOnPush(consumer) where the queue is "
                  "wired (consumer declared at " +
                  e.consumerSite + ")";
    }
}

/** BTH101: push-wake armed at a module that is not the consumer. */
void
rulePushWakeTarget(const SimGraph &g, const lint::CompositionModel *,
                   DiagnosticReport &rep)
{
    for (const GraphEdge &e : g.edges) {
        if (!e.pushWakeArmed || e.consumer == kNoIndex ||
            e.pushWakeTarget == kNoIndex ||
            e.pushWakeTarget == e.consumer)
            continue;
        auto &d = rep.add(
            "BTH101", moduleRef(g, e.consumer),
            "queue at " + e.site + " declares consumer '" +
                moduleRef(g, e.consumer) +
                "' but its push-wake is armed at '" +
                moduleRef(g, e.pushWakeTarget) + "'");
        d.note = "the consumer sleeps through pushes while an "
                 "unrelated module takes spurious wakes";
    }
}

/** BTH102: sleepable module with no reachable wake source at all. */
void
ruleWakeReachability(const SimGraph &g, const lint::CompositionModel *,
                     DiagnosticReport &rep)
{
    for (std::size_t i = 0; i < g.modules.size(); ++i) {
        const GraphModule &m = g.modules[i];
        if (!m.sleepable || m.selfWake)
            continue;
        bool reachable = false;
        for (const GraphEdge &e : g.edges) {
            if ((e.pushWakeArmed &&
                 e.pushWakeTarget == static_cast<int>(i)) ||
                (e.popWakeArmed &&
                 e.producer == static_cast<int>(i))) {
                reachable = true;
                break;
            }
        }
        if (reachable)
            continue;
        auto &d = rep.add("BTH102", m.name,
                          "module '" + m.name +
                              "' may sleep (declared at " + m.sleepSite +
                              ") but no queue wake or self-wake can "
                              "ever reach it");
        d.note = "first sleep is permanent: the module leaves the "
                 "active set and nothing re-arms it";
        d.fixit = "wire setWakeOnPush/setWakeOnPop on a port it waits "
                  "on, or declareSelfWake() and arm requestWakeAt";
    }
}

/** BTH103: self-wake declared on a module that never sleeps. */
void
ruleSelfWakePairing(const SimGraph &g, const lint::CompositionModel *,
                    DiagnosticReport &rep)
{
    for (const GraphModule &m : g.modules) {
        if (!m.selfWake || m.sleepable)
            continue;
        auto &d = rep.add("BTH103", m.name,
                          "module '" + m.name +
                              "' declares self-wake (at " +
                              m.selfWakeSite +
                              ") but never declares a sleep site");
        d.note = "requestWakeAt on an always-awake module is dead "
                 "arming; either the sleep declaration is missing "
                 "(analyzer blind spot) or the self-arm is stale";
    }
}

/**
 * BTH104: cycles of armed push-wakes through zero-latency queues. A
 * wake delivered in the same cycle it was armed can re-trigger its own
 * cause, so such a cycle livelocks the event kernel inside one cycle.
 * Real TimedQueues assert latency >= 1; this guards hand-built graphs
 * and any future zero-latency (combinational) channel.
 */
void
ruleZeroLatencyCycles(const SimGraph &g, const lint::CompositionModel *,
                      DiagnosticReport &rep)
{
    const std::size_t n = g.modules.size();
    std::vector<std::vector<int>> adj(n);
    for (const GraphEdge &e : g.edges) {
        if (e.pushWakeArmed && e.latency == 0 &&
            e.producer != kNoIndex && e.pushWakeTarget != kNoIndex)
            adj[e.producer].push_back(e.pushWakeTarget);
    }

    // Iterative colored DFS; each back edge closes one reported cycle.
    std::vector<int> color(n, 0); // 0 white, 1 on stack, 2 done
    std::vector<int> stack, pos(n, -1);
    for (std::size_t root = 0; root < n; ++root) {
        if (color[root] != 0)
            continue;
        std::vector<std::pair<int, std::size_t>> work;
        work.push_back({static_cast<int>(root), 0});
        color[root] = 1;
        pos[root] = 0;
        stack.assign(1, static_cast<int>(root));
        while (!work.empty()) {
            auto &[u, next] = work.back();
            if (next < adj[u].size()) {
                const int v = adj[u][next++];
                if (color[v] == 1) {
                    std::string path;
                    for (std::size_t k = pos[v]; k < stack.size(); ++k)
                        path += g.modules[stack[k]].name + " -> ";
                    path += g.modules[v].name;
                    auto &d = rep.add(
                        "BTH104", g.modules[v].name,
                        "zero-latency wake cycle: " + path);
                    d.note = "every hop is an armed push-wake through "
                             "a latency-0 queue, so the cycle spins "
                             "without the simulated clock advancing";
                } else if (color[v] == 0) {
                    color[v] = 1;
                    pos[v] = static_cast<int>(stack.size());
                    stack.push_back(v);
                    work.push_back({v, 0});
                }
            } else {
                color[u] = 2;
                stack.pop_back();
                work.pop_back();
            }
        }
    }
}

/** BTH105: one module on both wake ends of the same queue. */
void
ruleSelfWakeLoop(const SimGraph &g, const lint::CompositionModel *,
                 DiagnosticReport &rep)
{
    for (const GraphEdge &e : g.edges) {
        if (!e.pushWakeArmed || e.producer == kNoIndex ||
            e.pushWakeTarget != e.producer)
            continue;
        auto &d = rep.add(
            "BTH105", moduleRef(g, e.producer),
            "module '" + moduleRef(g, e.producer) +
                "' produces the queue at " + e.site +
                " and is also its push-wake target");
        d.note = "a producer waking itself on its own pushes keeps "
                 "itself artificially awake; usually the wake should "
                 "point at the consumer";
    }
}

/** BTH106: module census vs. what the composition model implies. */
void
ruleCensus(const SimGraph &g, const lint::CompositionModel *model,
           DiagnosticReport &rep)
{
    if (model == nullptr)
        return; // hand-built graph: no composition to compare against
    const GraphShape want = predictGraphShape(*model);
    GraphShape have;
    have.drams = have.mmios = 0;
    for (const GraphModule &m : g.modules) {
        if (m.role == "core")
            ++have.cores;
        else if (m.role == "reader")
            ++have.readers;
        else if (m.role == "writer")
            ++have.writers;
        else if (m.role == "scratchpad")
            ++have.scratchpads;
        else if (m.role == "bridge")
            ++have.bridges;
        else if (m.role == "pump")
            ++have.pumps;
        else if (m.role == "dram")
            ++have.drams;
        else if (m.role == "mmio")
            ++have.mmios;
    }
    const struct
    {
        const char *role;
        u64 want, have;
    } counts[] = {
        {"core", want.cores, have.cores},
        {"reader", want.readers, have.readers},
        {"writer", want.writers, have.writers},
        {"scratchpad", want.scratchpads, have.scratchpads},
        {"bridge", want.bridges, have.bridges},
        {"pump", want.pumps, have.pumps},
        {"dram", want.drams, have.drams},
        {"mmio", want.mmios, have.mmios},
    };
    for (const auto &c : counts) {
        if (c.want == c.have)
            continue;
        auto &d = rep.add(
            "BTH106", c.role,
            "composition model implies " + std::to_string(c.want) +
                " '" + c.role + "' module(s) but the elaborated graph "
                "has " + std::to_string(c.have));
        d.note = "analyzer and elaboration have skewed: one of them "
                 "is not seeing the composition the other built";
    }
}

} // namespace

const std::vector<GraphRuleEntry> &
graphRules()
{
    static const std::vector<GraphRuleEntry> rules = {
        {"push-wake-soundness", "graph", rulePushWakeSoundness},
        {"push-wake-target", "graph", rulePushWakeTarget},
        {"wake-reachability", "graph", ruleWakeReachability},
        {"self-wake-pairing", "graph", ruleSelfWakePairing},
        {"zero-latency-cycles", "graph", ruleZeroLatencyCycles},
        {"self-wake-loop", "graph", ruleSelfWakeLoop},
        {"module-census", "graph", ruleCensus},
    };
    return rules;
}

} // namespace analysis
} // namespace beethoven
