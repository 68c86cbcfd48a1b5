#include "lint/diagnostic.h"

#include <algorithm>
#include <sstream>

#include "base/json.h"
#include "base/log.h"

namespace beethoven::lint
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

const std::vector<DiagnosticCodeInfo> &
diagnosticRegistry()
{
    // The authoritative code list. Codes are grouped by layer in
    // blocks of ten; never renumber a shipped code — retire it and
    // allocate the next free number instead (DESIGN.md §5c).
    static const std::vector<DiagnosticCodeInfo> registry = {
        // --- config layer ------------------------------------------
        {"BTH001", "config", Severity::Error,
         "accelerator config declares no systems"},
        {"BTH002", "config", Severity::Error,
         "system with an empty name"},
        {"BTH003", "config", Severity::Error,
         "duplicate system name"},
        {"BTH004", "config", Severity::Error,
         "system declares zero cores"},
        {"BTH005", "config", Severity::Error,
         "RoCC routing space exceeded (systems, cores or commands)"},
        {"BTH006", "config", Severity::Error,
         "system has no module constructor"},
        {"BTH007", "config", Severity::Error,
         "memory channel declares zero channels"},
        {"BTH008", "config", Severity::Error,
         "duplicate read/write channel name within a system"},
        {"BTH009", "config", Severity::Error,
         "duplicate on-chip memory name within a system"},
        {"BTH010", "config", Severity::Error,
         "intra-core port targets an unknown system or port"},
        {"BTH011", "config", Severity::Error,
         "point-to-point intra-core port core-count mismatch"},
        {"BTH012", "config", Severity::Error,
         "generated-binding collision (duplicate or invalid command "
         "name)"},
        {"BTH013", "config", Severity::Warning,
         "platform power model is the uncalibrated default"},
        // --- memory layer ------------------------------------------
        {"BTH020", "memory", Severity::Error,
         "channel width not convertible to the DRAM bus width"},
        {"BTH021", "memory", Severity::Error,
         "zero-sized on-chip memory geometry"},
        {"BTH022", "memory", Severity::Error,
         "scratchpad demand exceeds per-SLR on-chip memory capacity"},
        {"BTH023", "memory", Severity::Error,
         "burst length exceeds the bus burst limit"},
        // --- axi layer ---------------------------------------------
        {"BTH030", "axi", Severity::Error,
         "AXI ID demand exceeds the platform ID space"},
        {"BTH031", "axi", Severity::Warning,
         "in-flight demand oversubscribes the DRAM controller"},
        {"BTH032", "axi", Severity::Warning,
         "maxInflight > 1 with TLP disabled serializes on one AXI ID"},
        // --- noc layer ---------------------------------------------
        {"BTH040", "noc", Severity::Error,
         "NoC root SLR index out of range (disconnected tree)"},
        // BTH041 (SLR-crossing buffer depth below the crossing
        // latency) is retired and unassigned: the tree builder sizes
        // every crossing link to its latency.
        {"BTH042", "noc", Severity::Warning,
         "aggregate stream demand oversubscribes the fabric root "
         "link"},
        // --- placement layer ---------------------------------------
        {"BTH050", "placement", Severity::Error,
         "core logic estimate does not fit on any SLR"},
        {"BTH051", "placement", Severity::Error,
         "aggregate core logic exceeds total device capacity"},
        // --- graph layer (simulation-graph analyzer, §5d) ----------
        {"BTH100", "graph", Severity::Error,
         "sleepable consumer without an armed push-wake"},
        {"BTH101", "graph", Severity::Error,
         "push-wake armed to a module other than the declared "
         "consumer"},
        {"BTH102", "graph", Severity::Error,
         "sleepable module with no reachable wake source"},
        {"BTH103", "graph", Severity::Error,
         "self-wake declared without a sleep site"},
        // BTH104 (zero-latency wake cycle) is retired and unassigned.
        {"BTH105", "graph", Severity::Warning,
         "self-wake loop: module is both producer and consumer of a "
         "wake-armed queue"},
        {"BTH106", "graph", Severity::Error,
         "module census disagrees with the composition model"},
        // The BTH11x block belonged to the retired shard-readiness
        // audit; its codes stay unassigned so old reports never
        // change meaning.
    };
    return registry;
}

const DiagnosticCodeInfo *
findDiagnosticCode(const std::string &code)
{
    for (const DiagnosticCodeInfo &info : diagnosticRegistry()) {
        if (code == info.code)
            return &info;
    }
    return nullptr;
}

Diagnostic &
DiagnosticReport::add(const std::string &code, std::string path,
                      std::string message)
{
    const DiagnosticCodeInfo *info = findDiagnosticCode(code);
    beethoven_assert(info != nullptr,
                     "lint rule emitted unregistered code '%s'",
                     code.c_str());
    Diagnostic d;
    d.code = code;
    d.severity = info->severity;
    d.path = std::move(path);
    d.message = std::move(message);
    _diags.push_back(std::move(d));
    return _diags.back();
}

std::size_t
DiagnosticReport::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(_diags.begin(), _diags.end(), [](const auto &d) {
            return d.severity == Severity::Error;
        }));
}

std::size_t
DiagnosticReport::warningCount() const
{
    return static_cast<std::size_t>(
        std::count_if(_diags.begin(), _diags.end(), [](const auto &d) {
            return d.severity == Severity::Warning;
        }));
}

std::vector<std::string>
DiagnosticReport::codes() const
{
    std::vector<std::string> out;
    for (const Diagnostic &d : _diags) {
        if (std::find(out.begin(), out.end(), d.code) == out.end())
            out.push_back(d.code);
    }
    return out;
}

bool
DiagnosticReport::has(const std::string &code) const
{
    return std::any_of(_diags.begin(), _diags.end(),
                       [&](const auto &d) { return d.code == code; });
}

std::string
DiagnosticReport::format() const
{
    std::ostringstream os;
    for (const Diagnostic &d : _diags) {
        os << severityName(d.severity) << "[" << d.code << "] ";
        if (!d.path.empty())
            os << d.path << ": ";
        os << d.message << "\n";
        if (!d.note.empty())
            os << "  note: " << d.note << "\n";
        if (!d.fixit.empty())
            os << "  fixit: " << d.fixit << "\n";
    }
    return os.str();
}

std::string
DiagnosticReport::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"errors\": " << errorCount()
       << ",\n  \"warnings\": " << warningCount()
       << ",\n  \"diagnostics\": [";
    for (std::size_t i = 0; i < _diags.size(); ++i) {
        const Diagnostic &d = _diags[i];
        if (i != 0)
            os << ",";
        os << "\n    {\"code\": \"" << d.code << "\", \"severity\": \""
           << severityName(d.severity)
           << "\", \"path\": " << jsonString(d.path)
           << ", \"message\": " << jsonString(d.message)
           << ", \"note\": " << jsonString(d.note)
           << ", \"fixit\": " << jsonString(d.fixit) << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

namespace
{

std::string
gateMessage(const std::string &headline, const DiagnosticReport &report)
{
    std::string what = detail::formatMessage(
        "fatal: %s: %zu error(s), %zu warning(s)\n", headline.c_str(),
        report.errorCount(), report.warningCount());
    what += report.format();
    if (what.back() == '\n')
        what.pop_back();
    return what;
}

} // namespace

// The base is built from the report before the member takes it over.
DiagnosticError::DiagnosticError(const std::string &headline,
                                 DiagnosticReport report)
    : ConfigError(gateMessage(headline, report)),
      _report(std::move(report))
{
}

} // namespace beethoven::lint
