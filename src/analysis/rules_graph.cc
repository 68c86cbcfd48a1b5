/**
 * @file
 * Wake-contract and census rules (the "graph" layer, BTH100–BTH106).
 *
 * These rules prove the event kernel's wake/sleep contract over the
 * simulator's own SimGraphRecord: a module that declares it may sleep
 * must be provably re-armable by some wake source, and wake wiring
 * must point at the module that actually consumes the queue. The
 * lost-wake bugs the differential fuzz harness catches dynamically
 * (--plant-lost-wake) become elaboration-time diagnostics here.
 */

#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyze.h"
#include "lint/lint.h"
#include "sim/module.h"

namespace beethoven
{
namespace analysis
{

namespace
{

using lint::DiagnosticReport;
using Edge = SimGraphRecord::QueueEdge;
using ModuleInfo = SimGraphRecord::ModuleInfo;

/** BTH100: sleepable consumer of a queue with no armed push-wake. */
void
rulePushWakeSoundness(const SimGraphRecord &g,
                      const lint::CompositionModel *,
                      DiagnosticReport &rep)
{
    for (const Edge &e : g.edges()) {
        if (e.consumer == nullptr || e.pushWakeArmed)
            continue;
        const ModuleInfo *m = g.info(e.consumer);
        if (m == nullptr || !m->sleepable)
            continue;
        const std::string &name = e.consumer->name();
        auto &d = rep.add("BTH100", name,
                          "queue at " + e.site.str() +
                              " feeds sleepable module '" + name +
                              "' (sleep declared at " +
                              m->sleepSite.str() +
                              ") but no push-wake is armed");
        d.note = "a push while the consumer sleeps is a lost wake: the "
                 "consumer never observes the entry and the "
                 "simulation hangs or diverges from the tick kernel";
        d.fixit = "arm setWakeOnPush(consumer) where the queue is "
                  "wired (consumer declared at " +
                  e.consumerSite.str() + ")";
    }
}

/** BTH101: push-wake armed at a module that is not the consumer. */
void
rulePushWakeTarget(const SimGraphRecord &g,
                   const lint::CompositionModel *, DiagnosticReport &rep)
{
    for (const Edge &e : g.edges()) {
        if (!e.pushWakeArmed || e.consumer == nullptr ||
            e.pushWakeTarget == nullptr ||
            e.pushWakeTarget == e.consumer)
            continue;
        auto &d = rep.add(
            "BTH101", e.consumer->name(),
            "queue at " + e.site.str() + " declares consumer '" +
                e.consumer->name() +
                "' but its push-wake is armed at '" +
                e.pushWakeTarget->name() + "'");
        d.note = "the consumer sleeps through pushes while an "
                 "unrelated module takes spurious wakes";
    }
}

/** BTH102: sleepable module with no reachable wake source at all. */
void
ruleWakeReachability(const SimGraphRecord &g,
                     const lint::CompositionModel *,
                     DiagnosticReport &rep)
{
    for (const ModuleInfo &m : g.modules()) {
        if (!m.sleepable || m.selfWake)
            continue;
        bool reachable = false;
        for (const Edge &e : g.edges()) {
            if ((e.pushWakeArmed && e.pushWakeTarget == m.module) ||
                (e.popWakeArmed && e.producer == m.module)) {
                reachable = true;
                break;
            }
        }
        if (reachable)
            continue;
        const std::string &name = m.module->name();
        auto &d = rep.add("BTH102", name,
                          "module '" + name + "' may sleep (declared at " +
                              m.sleepSite.str() +
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
ruleSelfWakePairing(const SimGraphRecord &g,
                    const lint::CompositionModel *, DiagnosticReport &rep)
{
    for (const ModuleInfo &m : g.modules()) {
        if (!m.selfWake || m.sleepable)
            continue;
        const std::string &name = m.module->name();
        auto &d = rep.add("BTH103", name,
                          "module '" + name + "' declares self-wake (at " +
                              m.selfWakeSite.str() +
                              ") but never declares a sleep site");
        d.note = "requestWakeAt on an always-awake module is dead "
                 "arming; either the sleep declaration is missing "
                 "(analyzer blind spot) or the self-arm is stale";
    }
}

/** BTH105: one module on both wake ends of the same queue. */
void
ruleSelfWakeLoop(const SimGraphRecord &g, const lint::CompositionModel *,
                 DiagnosticReport &rep)
{
    for (const Edge &e : g.edges()) {
        if (!e.pushWakeArmed || e.producer == nullptr ||
            e.pushWakeTarget != e.producer)
            continue;
        const std::string &name = e.producer->name();
        auto &d = rep.add("BTH105", name,
                          "module '" + name + "' produces the queue at " +
                              e.site.str() +
                              " and is also its push-wake target");
        d.note = "a producer waking itself on its own pushes keeps "
                 "itself artificially awake; usually the wake should "
                 "point at the consumer";
    }
}

/** BTH106: module census vs. what the composition model implies. */
void
ruleCensus(const SimGraphRecord &g, const lint::CompositionModel *model,
           DiagnosticReport &rep)
{
    if (model == nullptr)
        return; // bare simulator: no composition to compare against
    const GraphShape want = predictGraphShape(*model);
    GraphShape have;
    have.drams = have.mmios = 0;
    for (const ModuleInfo &m : g.modules()) {
        const std::string_view role = m.role;
        if (role == "core")
            ++have.cores;
        else if (role == "reader")
            ++have.readers;
        else if (role == "writer")
            ++have.writers;
        else if (role == "scratchpad")
            ++have.scratchpads;
        else if (role == "bridge")
            ++have.bridges;
        else if (role == "pump")
            ++have.pumps;
        else if (role == "dram")
            ++have.drams;
        else if (role == "mmio")
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
        {"self-wake-loop", "graph", ruleSelfWakeLoop},
        {"module-census", "graph", ruleCensus},
    };
    return rules;
}

} // namespace analysis
} // namespace beethoven
