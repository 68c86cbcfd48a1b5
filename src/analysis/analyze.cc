#include "analysis/analyze.h"

#include "core/soc.h"
#include "lint/lint.h"

namespace beethoven
{
namespace analysis
{

namespace
{

/// Deferral latch for AcceleratorSoc's constructor-tail validation.
thread_local bool g_deferSocGraphValidation = false;

} // namespace

void
setDeferSocGraphValidation(bool defer)
{
    g_deferSocGraphValidation = defer;
}

bool
socGraphValidationDeferred()
{
    return g_deferSocGraphValidation;
}

lint::DiagnosticReport
analyzeGraph(const SimGraph &g, const lint::CompositionModel *model)
{
    lint::DiagnosticReport rep;
    for (const GraphRuleEntry &rule : graphRules())
        rule.fn(g, model, rep);
    return rep;
}

lint::DiagnosticReport
analyzeSoc(const AcceleratorSoc &soc)
{
    const SimGraph g = buildSimGraph(soc.sim());
    const lint::CompositionModel model =
        lint::buildCompositionModel(soc.config(), soc.platform());
    return analyzeGraph(g, &model);
}

GraphShape
predictGraphShape(const lint::CompositionModel &model)
{
    GraphShape shape;
    shape.readers = model.readEndpoints;
    shape.writers = model.writeEndpoints;
    for (const auto &sys : model.config->systems) {
        shape.cores += sys.nCores;
        shape.scratchpads +=
            u64(sys.nCores) *
            (sys.scratchpads.size() + sys.intraMemoryIns.size());
        for (const auto &pout : sys.intraMemoryOuts)
            shape.bridges += u64(sys.nCores) * pout.nChannels;
    }
    // The command pump always exists; the r/b return pumps only when
    // the matching memory fabric was built at all.
    shape.pumps = 1 + (model.readEndpoints > 0 ? 1 : 0) +
                  (model.writeEndpoints > 0 ? 1 : 0);
    return shape;
}

} // namespace analysis
} // namespace beethoven
