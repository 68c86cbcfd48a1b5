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
            const ReaderParams p = resolveReaderParams(rc, platform);
            ResolvedStream st;
            st.systemIdx = s;
            st.channel = rc.name;
            st.endpoints = u64(rc.nChannels) * sys.nCores;
            st.dataBytes = p.dataBytes;
            st.burstBeats = p.burstBeats;
            st.maxInflight = p.maxInflight;
            st.useTlp = p.useTlp;
            st.idsPerEndpoint = p.useTlp ? p.maxInflight : 1;
            m.streams.push_back(std::move(st));
        }
        for (const auto &sp : sys.scratchpads) {
            if (!sp.supportsInit)
                continue;
            const ReaderParams p = spadInitReaderParams(sp, platform);
            ResolvedStream st;
            st.isSpadInit = true;
            st.systemIdx = s;
            st.channel = sp.name;
            st.endpoints = sys.nCores;
            st.dataBytes = p.dataBytes;
            st.burstBeats = p.burstBeats;
            st.maxInflight = p.maxInflight;
            st.useTlp = p.useTlp;
            st.idsPerEndpoint = p.useTlp ? p.maxInflight : 1;
            m.streams.push_back(std::move(st));
        }
        for (const auto &wc : sys.writeChannels) {
            const WriterParams p = resolveWriterParams(wc, platform);
            ResolvedStream st;
            st.isWriter = true;
            st.systemIdx = s;
            st.channel = wc.name;
            st.endpoints = u64(wc.nChannels) * sys.nCores;
            st.dataBytes = p.dataBytes;
            st.burstBeats = p.burstBeats;
            st.maxInflight = p.maxInflight;
            st.useTlp = p.useTlp;
            st.idsPerEndpoint = p.useTlp ? p.maxInflight : 1;
            m.streams.push_back(std::move(st));
        }
        m.systemCoreLogic.push_back(
            estimateCoreLogic(sys, platform, m.bus));
    }

    for (const ResolvedStream &st : m.streams) {
        if (st.isWriter) {
            m.writeEndpoints += st.endpoints;
            m.writeIdsRequired += st.endpoints * st.idsPerEndpoint;
        } else {
            m.readEndpoints += st.endpoints;
            m.readIdsRequired += st.endpoints * st.idsPerEndpoint;
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
