#include "lint/lint.h"

#include "core/elab_params.h"

namespace beethoven::lint
{

std::string
systemPath(const CompositionModel &m, std::size_t idx)
{
    std::string p = "systems[" + std::to_string(idx) + "]";
    if (idx < m.config->systems.size() &&
        !m.config->systems[idx].name.empty()) {
        p += " ('" + m.config->systems[idx].name + "')";
    }
    return p;
}

CompositionModel
buildCompositionModel(const AcceleratorConfig &config,
                      const Platform &platform)
{
    CompositionModel m;
    m.config = &config;
    m.platform = &platform;
    m.bus = platform.memoryConfig();
    m.slrs = platform.slrs();
    m.noc = platform.nocParams();
    m.hostSlr = platform.hostSlr();
    m.memorySlr = platform.memorySlr();
    m.memoryDerate = platform.memoryCongestionDerate();
    m.cellLib = platform.cellLibrary();
    m.preferredKind = platform.preferredMemoryKind();

    for (std::size_t s = 0; s < config.systems.size(); ++s) {
        const AcceleratorSystemConfig &sys = config.systems[s];
        for (const auto &rc : sys.readChannels) {
            m.streams.push_back({false, false, s, rc.name,
                                 u64(rc.nChannels) * sys.nCores,
                                 resolveStreamParams(rc, platform)});
        }
        for (const auto &sp : sys.scratchpads) {
            if (sp.supportsInit) {
                m.streams.push_back({false, true, s, sp.name, sys.nCores,
                                     spadInitStreamParams(sp, platform)});
            }
        }
        for (const auto &wc : sys.writeChannels) {
            m.streams.push_back({true, false, s, wc.name,
                                 u64(wc.nChannels) * sys.nCores,
                                 resolveStreamParams(wc, platform)});
        }
        m.systemCoreLogic.push_back(
            estimateCoreLogic(sys, platform, m.bus));
    }

    for (const ResolvedStream &st : m.streams) {
        const u64 ids = st.endpoints * st.params.numIds();
        if (st.isWriter) {
            m.writeEndpoints += st.endpoints;
            m.writeIdsRequired += ids;
        } else {
            m.readEndpoints += st.endpoints;
            m.readIdsRequired += ids;
        }
    }
    return m;
}

std::vector<LintRuleEntry>
lintRules()
{
    std::vector<LintRuleEntry> all;
    for (const auto *table :
         {&configLintRules(), &memoryLintRules(), &axiLintRules(),
          &nocLintRules(), &placementLintRules()}) {
        all.insert(all.end(), table->begin(), table->end());
    }
    return all;
}

DiagnosticReport
lintComposition(const CompositionModel &model)
{
    DiagnosticReport report;
    for (const LintRuleEntry &rule : lintRules())
        rule.fn(model, report);
    return report;
}

DiagnosticReport
lintComposition(const AcceleratorConfig &config,
                const Platform &platform)
{
    return lintComposition(buildCompositionModel(config, platform));
}

} // namespace beethoven::lint
