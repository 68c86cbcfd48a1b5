/**
 * @file
 * Structured composition diagnostics.
 *
 * Every finding the elaboration-time linter (lint/lint.h) can produce
 * is identified by a stable code ("BTH012") drawn from a central
 * registry. A DiagnosticReport collects *all* findings of a lint pass
 * instead of throwing on the first, so one failed build reports every
 * composition defect at once — the BeethovenBuild promise of Fig. 3a:
 * composition errors surface at build time, not after hours of
 * simulation.
 */

#ifndef BEETHOVEN_LINT_DIAGNOSTIC_H
#define BEETHOVEN_LINT_DIAGNOSTIC_H

#include <cstddef>
#include <string>
#include <vector>

#include "base/log.h"

namespace beethoven::lint
{

enum class Severity { Note, Warning, Error };

const char *severityName(Severity s);

/** One linter finding, addressed by a stable diagnostic code. */
struct Diagnostic
{
    std::string code;    ///< registry code, e.g. "BTH020"
    Severity severity = Severity::Error;
    std::string path;    ///< config location, e.g. "systems[1].src"
    std::string message; ///< one-line statement of the defect
    std::string note;    ///< optional: why this is a problem
    std::string fixit;   ///< optional: suggested configuration change
};

/**
 * Registry entry for one diagnostic code. The registry is the
 * authoritative list of everything the linter can say; soc_lint
 * --list-codes prints it and tests enforce that emitted codes are
 * registered.
 */
struct DiagnosticCodeInfo
{
    const char *code;
    const char *layer; ///< config | memory | axi | noc | placement
                       ///< | graph (BTH1xx, src/analysis/)
    Severity severity; ///< severity this code is emitted with
    const char *summary;
};

/** All registered diagnostic codes, in code order. */
const std::vector<DiagnosticCodeInfo> &diagnosticRegistry();

/** Look up one code. @return nullptr when unregistered. */
const DiagnosticCodeInfo *findDiagnosticCode(const std::string &code);

/**
 * Collector for lint findings. add() stamps severity from the
 * registry, so a rule cannot emit an unregistered or wrongly-graded
 * code.
 */
class DiagnosticReport
{
  public:
    /**
     * Append a finding. @p code must be registered (panics otherwise
     * — an unregistered code is a Beethoven bug, not user error).
     * @return the new diagnostic, for attaching note/fixit text.
     */
    Diagnostic &add(const std::string &code, std::string path,
                    std::string message);

    const std::vector<Diagnostic> &diagnostics() const { return _diags; }

    bool empty() const { return _diags.empty(); }
    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }

    /** Codes present in this report, deduplicated, in emission order. */
    std::vector<std::string> codes() const;

    /** True if any finding carries @p code. */
    bool has(const std::string &code) const;

    /**
     * Human-readable multi-line rendering:
     *
     *   error[BTH003] systems[1]: duplicate system name 'X'
     *     note: ...
     *     fixit: ...
     */
    std::string format() const;

    /** Machine-readable rendering (soc_lint --json). */
    std::string toJson() const;

  private:
    std::vector<Diagnostic> _diags;
};

/**
 * What a check gate throws when its report holds an error: the
 * AcceleratorSoc constructor's linter and graph-analyzer passes. A
 * ConfigError like any other (what() is the summary line and the
 * formatted report), which also hands tools the structured findings.
 */
class DiagnosticError : public ConfigError
{
  public:
    /** what() reads "fatal: <headline>: N error(s), M warning(s)". */
    DiagnosticError(const std::string &headline, DiagnosticReport report);

    const DiagnosticReport &report() const { return _report; }

  private:
    DiagnosticReport _report;
};

} // namespace beethoven::lint

#endif // BEETHOVEN_LINT_DIAGNOSTIC_H
