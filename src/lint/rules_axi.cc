/**
 * @file
 * AXI-layer lint rules (BTH030-BTH032): transaction-ID budgeting.
 *
 * Each TLP-mode endpoint owns maxInflight contiguous AXI IDs (one
 * otherwise), allocated separately for the read and write directions
 * (Section II-C); the platform's idBits bound both ID spaces. Rules
 * here flag hard exhaustion and two soft anti-patterns: demanding far
 * more concurrency than the DRAM controller can overlap, and paying
 * for in-flight depth that a non-TLP endpoint can never use.
 */

#include "lint/lint.h"

namespace beethoven::lint
{

namespace
{

void
ruleIdExhaustion(const CompositionModel &m, DiagnosticReport &rep)
{
    const u64 ids = m.bus.numIds();
    if (m.readIdsRequired > ids) {
        rep.add("BTH030", "memory.read",
                "design needs " + std::to_string(m.readIdsRequired) +
                    " read AXI IDs but the platform provides " +
                    std::to_string(ids))
            .fixit = "reduce cores/channels, lower maxInflight, or "
                     "disable TLP on low-throughput channels";
    }
    if (m.writeIdsRequired > ids) {
        rep.add("BTH030", "memory.write",
                "design needs " + std::to_string(m.writeIdsRequired) +
                    " write AXI IDs but the platform provides " +
                    std::to_string(ids))
            .fixit = "reduce cores/channels, lower maxInflight, or "
                     "disable TLP on low-throughput channels";
    }
}

void
ruleControllerOversubscription(const CompositionModel &m,
                               DiagnosticReport &rep)
{
    // The controller overlaps transactions across DRAM banks; beyond
    // a small multiple of the bank count, extra in-flight depth only
    // buys queueing, not bandwidth.
    const u64 banks = m.platform->dramGeometry().numBanks();
    const u64 budget = banks * 8;
    const u64 demand = m.readIdsRequired + m.writeIdsRequired;
    if (banks > 0 && demand > budget) {
        rep.add("BTH031", "memory",
                "aggregate in-flight demand of " +
                    std::to_string(demand) +
                    " transactions oversubscribes the " +
                    std::to_string(banks) +
                    "-bank DRAM controller (soft budget " +
                    std::to_string(budget) + ")")
            .note = "throughput saturates at the controller; extra "
                    "depth adds latency, not bandwidth";
    }
}

void
ruleInflightWithoutTlp(const CompositionModel &m, DiagnosticReport &rep)
{
    for (const ResolvedStream &st : m.streams) {
        if (!st.params.useTlp && st.params.maxInflight > 1) {
            rep.add("BTH032",
                    systemPath(m, st.systemIdx) + "." + st.channel,
                    "maxInflight=" +
                        std::to_string(st.params.maxInflight) +
                        " with TLP disabled: all transactions share "
                        "one AXI ID and complete in order")
                .fixit = "enable useTlp to claim distinct IDs, or "
                         "drop maxInflight to 1";
        }
    }
}

} // namespace

const std::vector<LintRuleEntry> &
axiLintRules()
{
    static const std::vector<LintRuleEntry> rules = {
        {"id-exhaustion", "axi", ruleIdExhaustion},
        {"controller-oversubscription", "axi",
         ruleControllerOversubscription},
        {"inflight-without-tlp", "axi", ruleInflightWithoutTlp},
    };
    return rules;
}

} // namespace beethoven::lint
