#include "common/bench_cli.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

#include "base/decimal.h"
#include "base/json.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "perf/kpi.h"
#include "power/power.h"
#include "sim/simulator.h"

namespace beethoven
{

namespace
{

/** argv[0] without directories, for messages and the perf-json. */
std::string
benchBasename(const char *argv0)
{
    std::string s = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = s.find_last_of('/');
    return slash == std::string::npos ? s : s.substr(slash + 1);
}

/** The rest of @p arg after @p prefix, if @p arg starts with it. */
std::optional<std::string_view>
flagValue(std::string_view arg, std::string_view prefix)
{
    if (!arg.starts_with(prefix))
        return std::nullopt;
    return arg.substr(prefix.size());
}

/** Print @p parts as one stderr line and exit 2 (usage error). */
template <typename... Parts>
[[noreturn]] void
usageError(const Parts &...parts)
{
    (std::cerr << ... << parts) << "\n";
    std::exit(2);
}

/**
 * Open @p path and write it through @p body. @return false, after
 * saying so on stderr, when the file cannot be opened.
 */
template <typename Body>
bool
writeOutput(const std::string &path, const char *what, Body &&body)
{
    std::ofstream f(path);
    if (!f) {
        std::cerr << "cannot open " << what << " file " << path << "\n";
        return false;
    }
    body(f);
    return true;
}

} // namespace

BenchCli::BenchCli(int argc, char **argv)
    : _benchName(benchBasename(argc > 0 ? argv[0] : nullptr)),
      _startNs(hostNowNs())
{
    // Output-path flags. Each needs a non-empty, writable path: an
    // empty value is a usage error, never a silent "off".
    const struct
    {
        const char *flag; ///< "--trace=" etc., '=' included
        std::string *path;
        const char *what;
    } outputs[] = {
        {"--trace=", &_tracePath, "trace"},
        {"--stats-json=", &_statsPath, "stats"},
        {"--perf-json=", &_perfPath, "perf json"},
        {"--power-json=", &_powerJsonPath, "power json"},
    };

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--quick") {
            _quick = true;
        } else if (arg == "--host-profile") {
            _profiler = std::make_unique<HostProfiler>();
        } else if (const auto k = flagValue(arg, "--sim-kernel=")) {
            if (*k != "tick" && *k != "event")
                usageError(_benchName, ": bad --sim-kernel '", *k,
                           "' (expected tick or event)");
            _tickKernel = *k == "tick";
        } else if (const auto n = flagValue(arg, "--watchdog=")) {
            const std::optional<u64> cycles = parseDecimal(*n);
            if (!cycles)
                usageError(_benchName, ": bad --watchdog value '", *n,
                           "' (expected a 64-bit decimal count)");
            _watchdog = *cycles;
        } else {
            bool matched = false;
            for (const auto &o : outputs) {
                const auto path = flagValue(arg, o.flag);
                if (!path)
                    continue;
                if (path->empty())
                    usageError(_benchName, ": ", o.flag,
                               " needs a file path");
                *o.path = *path;
                matched = true;
                break;
            }
            if (!matched)
                usageError(
                    _benchName, ": unknown argument '", arg,
                    "'\nusage: ", _benchName,
                    " [--quick] [--trace=FILE] [--stats-json=FILE]"
                    " [--watchdog=N] [--sim-kernel=tick|event]"
                    " [--perf-json=FILE] [--host-profile]"
                    " [--power-json=FILE]");
        }
    }

    // Fail unwritable output paths before any simulation runs. The
    // append-mode probe creates missing files but never truncates an
    // existing one another process might still be reading.
    for (const auto &o : outputs) {
        if (o.path->empty())
            continue;
        std::ofstream f(*o.path, std::ios::app);
        if (!f)
            usageError(_benchName, ": cannot open ", o.what, " file ",
                       *o.path, " for writing");
    }

    if (!_tracePath.empty())
        _sink = std::make_unique<TraceSink>();
    if (!_powerJsonPath.empty())
        _powerMeter = std::make_unique<PowerMeter>();
}

BenchCli::~BenchCli() = default;

void
BenchCli::instrument(Simulator &sim, const std::string &label)
{
    if (_sink != nullptr) {
        _sink->beginProcess(label);
        sim.attachTrace(_sink.get());
    }
    sim.setKernel(_tickKernel ? SimKernel::Tick : SimKernel::Event);
    if (_watchdog != 0)
        sim.setWatchdog(_watchdog);
    if (_profiler != nullptr)
        sim.attachHostProfiler(_profiler.get());
    if (_powerMeter != nullptr)
        sim.attachPowerMeter(_powerMeter.get());
}

void
BenchCli::recordStats(const std::string &label, Simulator &sim,
                      double ops)
{
    // The power snapshot must happen regardless of whether a stats
    // path was given: --power-json alone is a valid invocation.
    if (_powerMeter != nullptr)
        _powerMeter->recordRun(sim, label, ops);
    sim.publishStallStats();
    if (_statsPath.empty())
        return;
    std::ostringstream oss;
    sim.stats().dumpJson(oss);
    _statsJson.emplace_back(label, oss.str());
}

void
BenchCli::addPowerReference(const std::string &label, double watts,
                            double ops_per_sec)
{
    if (_powerMeter != nullptr)
        _powerMeter->addReference(label, watts, ops_per_sec);
}

int
BenchCli::finish()
{
    bool ok = true;
    if (_sink != nullptr) {
        ok &= writeOutput(_tracePath, "trace", [this](std::ostream &f) {
            _sink->writeChromeTrace(f);
            std::cerr << "wrote " << _sink->numEvents() << " events to "
                      << _tracePath << "\n";
            _sink->writeSummary(std::cerr);
            _sink->writeProfile(std::cerr);
        });
    }
    if (!_statsPath.empty()) {
        ok &= writeOutput(_statsPath, "stats", [this](std::ostream &f) {
            f << "{";
            const char *sep = "";
            for (const auto &[label, json] : _statsJson) {
                f << sep << jsonString(label) << ":" << json;
                sep = ",\n";
            }
            f << "}\n";
        });
    }
    if (!_perfPath.empty()) {
        ok &= writeOutput(_perfPath, "perf json", [this](std::ostream &f) {
            writePerfJson(f, _benchName, _quick, hostNowNs() - _startNs,
                          globalSimCycles(), globalModuleTicks(),
                          _profiler.get());
        });
    }
    if (_powerMeter != nullptr) {
        ok &= writeOutput(_powerJsonPath, "power json",
                          [this](std::ostream &f) {
                              writePowerReportJson(f,
                                                   _powerMeter->report());
                          });
    }
    if (_profiler != nullptr)
        _profiler->writeReport(std::cerr);
    return ok ? 0 : 1;
}

} // namespace beethoven
