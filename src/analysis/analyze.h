/**
 * @file
 * The simulation-graph static analyzer (DESIGN.md §5d).
 *
 * Extends the composition linter from *configuration* legality to
 * *simulation-graph* legality: rules over a Simulator's own
 * SimGraphRecord prove the event kernel's wake/sleep contract (BTH10x)
 * before a single cycle runs. Diagnostics reuse the lint
 * Diagnostic/DiagnosticReport machinery and the stable-code registry;
 * all violations are reported in one pass.
 */

#ifndef BEETHOVEN_ANALYSIS_ANALYZE_H
#define BEETHOVEN_ANALYSIS_ANALYZE_H

#include <vector>

#include "base/types.h"
#include "lint/diagnostic.h"
#include "sim/graph_record.h"

namespace beethoven
{

namespace lint
{
struct CompositionModel;
}

namespace analysis
{

/**
 * One analyzer rule. Mirrors lint::LintRuleEntry so the two rule
 * families stay structurally interchangeable; @p model is null when no
 * composition model is available (a bare Simulator in tests), in
 * which case model-dependent rules (the census) skip themselves.
 */
struct GraphRuleEntry
{
    const char *name;
    const char *layer; ///< "graph"
    void (*fn)(const SimGraphRecord &g,
               const lint::CompositionModel *model,
               lint::DiagnosticReport &rep);
};

/** Wake-contract and census rules (BTH100..BTH106). */
const std::vector<GraphRuleEntry> &graphRules();

/** Run every analyzer rule over @p g. */
lint::DiagnosticReport analyzeGraph(
    const SimGraphRecord &g,
    const lint::CompositionModel *model = nullptr);

/**
 * Placement-independent module census the composition model implies:
 * what elaboration must have built, by role. NoC node counts are
 * placement-dependent and deliberately excluded.
 */
struct GraphShape
{
    u64 cores = 0;
    u64 readers = 0;
    u64 writers = 0;
    u64 scratchpads = 0;
    u64 bridges = 0;
    u64 pumps = 0;
    u64 drams = 1;
    u64 mmios = 1;
};

GraphShape predictGraphShape(const lint::CompositionModel &model);

} // namespace analysis
} // namespace beethoven

#endif // BEETHOVEN_ANALYSIS_ANALYZE_H
