/**
 * @file
 * The simulation-graph static analyzer (DESIGN.md §5d).
 *
 * Extends the PR 4 composition linter from *configuration* legality to
 * *simulation-graph* legality: rules over the SimGraph IR prove the
 * event kernel's wake/sleep contract (BTH10x) before a single cycle
 * runs. Diagnostics reuse the lint Diagnostic/DiagnosticReport
 * machinery and the stable-code registry; all violations are reported
 * in one pass.
 */

#ifndef BEETHOVEN_ANALYSIS_ANALYZE_H
#define BEETHOVEN_ANALYSIS_ANALYZE_H

#include <vector>

#include "analysis/sim_graph.h"
#include "base/types.h"
#include "lint/diagnostic.h"

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
 * composition model is available (hand-built graphs in tests), in
 * which case model-dependent rules (the census) skip themselves.
 */
struct GraphRuleEntry
{
    const char *name;
    const char *layer; ///< "graph"
    void (*fn)(const SimGraph &g, const lint::CompositionModel *model,
               lint::DiagnosticReport &rep);
};

/** Wake-contract and livelock rules (BTH100..BTH106). */
const std::vector<GraphRuleEntry> &graphRules();

/** Run every analyzer rule over @p g. */
lint::DiagnosticReport analyzeGraph(
    const SimGraph &g, const lint::CompositionModel *model = nullptr);

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

/**
 * When deferred, AcceleratorSoc's constructor-tail graph validation
 * records nothing and does not throw; tools and tests that want the
 * DiagnosticReport (or that plant violations on purpose) defer it and
 * call AcceleratorSoc::analyzeGraph() themselves. Per thread:
 * deferring on one thread leaves elaborations on other threads gated.
 */
void setDeferSocGraphValidation(bool defer);
bool socGraphValidationDeferred();

/** RAII defer scope (exception-safe disarm). */
class ScopedDeferGraphValidation
{
  public:
    ScopedDeferGraphValidation() { setDeferSocGraphValidation(true); }
    ~ScopedDeferGraphValidation() { setDeferSocGraphValidation(false); }

    ScopedDeferGraphValidation(const ScopedDeferGraphValidation &) =
        delete;
    ScopedDeferGraphValidation &
    operator=(const ScopedDeferGraphValidation &) = delete;
};

} // namespace analysis
} // namespace beethoven

#endif // BEETHOVEN_ANALYSIS_ANALYZE_H
