/**
 * @file
 * Elaboration-time composition linter.
 *
 * lintComposition() statically analyzes an *unbuilt* AcceleratorConfig
 * against a Platform — no Simulator, no module construction — and
 * returns every composition defect it can prove, as structured
 * diagnostics (lint/diagnostic.h). AcceleratorSoc elaboration runs it
 * first and fails with the full report when any error-severity finding
 * exists, so an invalid composition reports all of its violations in
 * one build failure instead of first-error-wins.
 *
 * Rules are organized by layer (config, memory, axi, noc, placement),
 * each layer a rules_<layer>.cc translation unit contributing a named
 * rule table. Rules share a precomputed CompositionModel: the resolved
 * view of the config (platform defaults applied, AXI IDs counted, core
 * logic estimated) that real elaboration would act on. To add a rule:
 * register its code in lint/diagnostic.cc, append a LintRuleEntry to
 * the appropriate layer table, and add a positive + negative case to
 * tests/lint_test.cc (DESIGN.md §5c).
 */

#ifndef BEETHOVEN_LINT_LINT_H
#define BEETHOVEN_LINT_LINT_H

#include <string>
#include <vector>

#include "core/config.h"
#include "lint/diagnostic.h"
#include "mem/memory_compiler.h"
#include "platform/platform.h"

namespace beethoven::lint
{

/**
 * One read or write stream endpoint class after knob resolution:
 * a (system, channel) pair covering `endpoints` identical endpoints
 * (nChannels x nCores, or nCores for scratchpad-init readers).
 */
struct ResolvedStream
{
    bool isWriter = false;
    bool isSpadInit = false;
    std::size_t systemIdx = 0;
    std::string channel;
    u64 endpoints = 0; ///< total endpoint count across cores
    StreamParams params;
};

/**
 * The resolved, pre-elaboration view of a composition that lint rules
 * reason over. Building the model never throws: degenerate values
 * (zero widths, out-of-range indices) are carried through for rules to
 * flag rather than crash on.
 */
struct CompositionModel
{
    const AcceleratorConfig *config = nullptr;
    const Platform *platform = nullptr;

    AxiConfig bus;
    std::vector<SlrDescriptor> slrs;
    NocParams noc;
    unsigned hostSlr = 0;
    unsigned memorySlr = 0;
    double memoryDerate = 1.0;
    MemoryCellLibrary cellLib;
    MemoryCellKind preferredKind = MemoryCellKind::Bram;

    std::vector<ResolvedStream> streams;
    u64 readIdsRequired = 0;  ///< AXI read ID space the design demands
    u64 writeIdsRequired = 0;
    u64 readEndpoints = 0;
    u64 writeEndpoints = 0;

    /** Per-system, per-core generated + kernel logic estimate. */
    std::vector<ResourceVec> systemCoreLogic;
};

/**
 * Resolve @p config against @p platform. Never throws. The model keeps
 * pointers to both, so they must outlive it; a temporary config does
 * not compile.
 */
CompositionModel buildCompositionModel(const AcceleratorConfig &config,
                                       const Platform &platform);
CompositionModel buildCompositionModel(AcceleratorConfig &&,
                                       const Platform &) = delete;

/** One registered lint rule. */
struct LintRuleEntry
{
    const char *name;  ///< short kebab-case rule name
    const char *layer; ///< config | memory | axi | noc | placement
    void (*fn)(const CompositionModel &, DiagnosticReport &);
};

/** Per-layer rule tables (defined in rules_<layer>.cc). */
const std::vector<LintRuleEntry> &configLintRules();
const std::vector<LintRuleEntry> &memoryLintRules();
const std::vector<LintRuleEntry> &axiLintRules();
const std::vector<LintRuleEntry> &nocLintRules();
const std::vector<LintRuleEntry> &placementLintRules();

/** Every registered rule, in layer order. */
std::vector<LintRuleEntry> lintRules();

/** Run every rule over @p model. Never throws. */
DiagnosticReport lintComposition(const CompositionModel &model);

/** Run every rule over @p config / @p platform. Never throws. */
DiagnosticReport lintComposition(const AcceleratorConfig &config,
                                 const Platform &platform);

/** "systems[i]" (+ ".name" when the system is named). */
std::string systemPath(const CompositionModel &m, std::size_t idx);

} // namespace beethoven::lint

#endif // BEETHOVEN_LINT_LINT_H
