/**
 * @file
 * NoC-layer lint rules (BTH040, BTH042): tree-fabric reachability and
 * throughput. The command and memory fabrics are trees rooted at the
 * host / memory SLR (Section II-C); a root index outside the device or
 * a zero-capacity link parameterization leaves endpoints unreachable,
 * and an oversubscribed root link caps sustained throughput well below
 * what the cores demand. (BTH041 is retired: the tree builder sizes
 * every SLR crossing to its latency, noc/tree.h crossingDepth.)
 */

#include "lint/lint.h"

namespace beethoven::lint
{

namespace
{

void
ruleTreeConnectivity(const CompositionModel &m, DiagnosticReport &rep)
{
    const std::size_t n_slrs = m.slrs.size();
    if (m.hostSlr >= n_slrs) {
        rep.add("BTH040", "platform.hostSlr",
                "command-fabric root SLR " + std::to_string(m.hostSlr) +
                    " is outside the " + std::to_string(n_slrs) +
                    "-SLR device: every core is disconnected from the "
                    "host");
    }
    if (m.memorySlr >= n_slrs) {
        rep.add("BTH040", "platform.memorySlr",
                "memory-fabric root SLR " +
                    std::to_string(m.memorySlr) +
                    " is outside the " + std::to_string(n_slrs) +
                    "-SLR device: every endpoint is disconnected from "
                    "DRAM");
    }
    if (m.noc.fanout == 0) {
        rep.add("BTH040", "platform.noc.fanout",
                "tree fanout of zero cannot connect any endpoint to "
                "the root");
    }
    if (m.noc.queueDepth == 0) {
        rep.add("BTH040", "platform.noc.queueDepth",
                "zero-depth link queues cannot carry flits: the "
                "fabric is connected but dead");
    }
}

void
ruleRootLinkOversubscription(const CompositionModel &m,
                             DiagnosticReport &rep)
{
    // Peak demand if every endpoint streamed a beat per cycle. The
    // root link moves one bus beat per cycle; past a 4x derated
    // oversubscription the tree is the bottleneck by construction.
    if (m.bus.dataBytes == 0)
        return; // degenerate platform; BTH020 already fired per stream
    double demand_bytes = 0;
    for (const ResolvedStream &st : m.streams)
        demand_bytes += double(st.endpoints) * st.params.dataBytes;
    const double capacity =
        4.0 * double(m.bus.dataBytes) * m.memoryDerate;
    if (demand_bytes > capacity) {
        rep.add("BTH042", "noc.root",
                "aggregate stream demand of " +
                    std::to_string(u64(demand_bytes)) +
                    " bytes/cycle oversubscribes the " +
                    std::to_string(m.bus.dataBytes) +
                    "-byte root link (soft budget " +
                    std::to_string(u64(capacity)) + ")")
            .note = "endpoints will stall on fabric arbitration long "
                    "before DRAM saturates";
    }
}

} // namespace

const std::vector<LintRuleEntry> &
nocLintRules()
{
    static const std::vector<LintRuleEntry> rules = {
        {"tree-connectivity", "noc", ruleTreeConnectivity},
        {"root-link-oversubscription", "noc",
         ruleRootLinkOversubscription},
    };
    return rules;
}

} // namespace beethoven::lint
