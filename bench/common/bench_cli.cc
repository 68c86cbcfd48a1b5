#include "common/bench_cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "base/json.h"
#include "base/log.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "perf/kpi.h"
#include "power/power.h"
#include "sim/simulator.h"
#include "trace/bottleneck.h"
#include "verify/invariants.h"

namespace beethoven
{

namespace
{

/** argv[0] without directories, for the perf-json bench field. */
std::string
benchBasename(const char *argv0)
{
    std::string s = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = s.find_last_of('/');
    return slash == std::string::npos ? s : s.substr(slash + 1);
}

/**
 * Parse a --host-profile mode spec: "" (bare flag) and "sample:N"
 * select sampling, "scoped" measures every cycle. Anything else is a
 * usage error (exit 2, consistent with bad output paths).
 */
std::unique_ptr<HostProfiler>
makeProfiler(const std::string &spec)
{
    if (spec.empty())
        return std::make_unique<HostProfiler>(
            HostProfiler::Mode::Sampling);
    if (spec == "scoped")
        return std::make_unique<HostProfiler>(
            HostProfiler::Mode::Scoped);
    if (spec.rfind("sample:", 0) == 0) {
        const unsigned long n =
            std::strtoul(spec.c_str() + 7, nullptr, 10);
        if (n >= 1)
            return std::make_unique<HostProfiler>(
                HostProfiler::Mode::Sampling, static_cast<u32>(n));
    }
    std::cerr << "bad --host-profile mode '" << spec
              << "' (expected scoped or sample:N)\n";
    std::exit(2);
}

/**
 * The value of a count flag (--watchdog=N): all decimal digits, or a
 * usage error (exit 2) naming @p flag.
 */
u64
parseCount(const char *flag, const char *value)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (*value < '0' || *value > '9' || *end != '\0') {
        std::cerr << "bad " << flag << " value '" << value
                  << "' (expected a decimal count)\n";
        std::exit(2);
    }
    return n;
}

} // namespace

BenchCli::BenchCli(int &argc, char **argv)
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
        {"--stall-report=", &_stallReportPath, "stall report"},
        {"--perf-json=", &_perfPath, "perf json"},
        {"--power-json=", &_powerJsonPath, "power json"},
    };

    bool host_profile = false;
    std::string profile_spec;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        bool is_output = false;
        for (const auto &o : outputs) {
            const std::size_t n = std::strlen(o.flag);
            if (std::strncmp(arg, o.flag, n) != 0)
                continue;
            if (arg[n] == '\0') {
                std::cerr << o.flag << " needs a file path\n";
                std::exit(2);
            }
            *o.path = arg + n;
            is_output = true;
            break;
        }
        if (is_output)
            continue;
        if (std::strcmp(arg, "--host-profile") == 0) {
            host_profile = true;
        } else if (std::strncmp(arg, "--host-profile=", 15) == 0) {
            host_profile = true;
            profile_spec = arg + 15;
        } else if (std::strncmp(arg, "--sim-kernel=", 13) == 0) {
            const char *k = arg + 13;
            if (std::strcmp(k, "event") == 0) {
                _tickKernel = false;
            } else if (std::strcmp(k, "tick") == 0) {
                _tickKernel = true;
            } else {
                std::cerr << "bad --sim-kernel '" << k
                          << "' (expected tick or event)\n";
                std::exit(2);
            }
        } else if (std::strncmp(arg, "--watchdog=", 11) == 0) {
            _watchdog = parseCount("--watchdog", arg + 11);
        } else if (std::strcmp(arg, "--quick") == 0) {
            _quick = true;
        } else if (std::strcmp(arg, "--no-invariants") == 0) {
            _invariants = false;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;

    if (host_profile)
        _profiler = makeProfiler(profile_spec);
    else if (!_perfPath.empty())
        // KPIs only: heartbeat without per-component timing.
        _profiler = std::make_unique<HostProfiler>(
            HostProfiler::Mode::KpiOnly);

    // Fail unwritable output paths before any simulation runs. The
    // append-mode probe creates missing files but never truncates an
    // existing one another process might still be reading.
    for (const auto &o : outputs) {
        if (o.path->empty())
            continue;
        std::ofstream f(*o.path, std::ios::app);
        if (!f) {
            std::cerr << "cannot open " << o.what << " file " << *o.path
                      << " for writing\n";
            std::exit(2);
        }
    }

    if (!_tracePath.empty())
        _sink = std::make_unique<TraceSink>();
    if (!_powerJsonPath.empty())
        _powerMeter = std::make_unique<PowerMeter>();
}

BenchCli::~BenchCli() = default;

void
BenchCli::armWatchdog(Simulator &sim) const
{
    if (_watchdog != 0)
        sim.setWatchdog(_watchdog);
}

SimKernel
BenchCli::simKernel() const
{
    return _tickKernel ? SimKernel::Tick : SimKernel::Event;
}

void
BenchCli::instrument(Simulator &sim) const
{
    sim.setKernel(simKernel());
    armWatchdog(sim);
    if (_profiler != nullptr)
        sim.attachHostProfiler(_profiler.get());
    if (_powerMeter != nullptr)
        sim.attachPowerMeter(_powerMeter.get());
}

std::unique_ptr<SocInvariants>
BenchCli::armInvariants(AcceleratorSoc &soc) const
{
    if (!_invariants)
        return nullptr;
    return std::make_unique<SocInvariants>(soc);
}

void
BenchCli::recordStats(const std::string &label, const StatGroup &stats)
{
    if (_statsPath.empty() && _stallReportPath.empty())
        return;
    std::ostringstream oss;
    stats.dumpJson(oss);
    _statsJson.emplace_back(label, oss.str());
}

void
BenchCli::recordStats(const std::string &label, Simulator &sim)
{
    recordStats(label, sim, 0.0);
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
    recordStats(label, sim.stats());
}

void
BenchCli::addPowerReference(const std::string &label, double watts,
                            double ops_per_sec)
{
    if (_powerMeter != nullptr)
        _powerMeter->addReference(label, watts, ops_per_sec);
}

std::string
BenchCli::combinedStatsJson() const
{
    std::ostringstream oss;
    oss << "{";
    bool first = true;
    for (const auto &[label, json] : _statsJson) {
        if (!first)
            oss << ",\n";
        first = false;
        oss << jsonString(label) << ":" << json;
    }
    oss << "}\n";
    return oss.str();
}

int
BenchCli::finish()
{
    int rc = 0;
    if (_sink != nullptr) {
        std::ofstream f(_tracePath);
        if (!f) {
            std::cerr << "cannot open trace file " << _tracePath << "\n";
            rc = 1;
        } else {
            _sink->writeChromeTrace(f);
            std::cerr << "wrote " << _sink->numEvents() << " events to "
                      << _tracePath << "\n";
            _sink->writeSummary(std::cerr);
            _sink->writeProfile(std::cerr);
        }
    }
    if (!_statsPath.empty()) {
        std::ofstream f(_statsPath);
        if (!f) {
            std::cerr << "cannot open stats file " << _statsPath << "\n";
            rc = 1;
        } else {
            f << combinedStatsJson();
        }
    }
    if (!_perfPath.empty()) {
        std::ofstream f(_perfPath);
        if (!f) {
            std::cerr << "cannot open perf json file " << _perfPath
                      << "\n";
            rc = 1;
        } else {
            writePerfJson(f, _benchName, _quick,
                          hostNowNs() - _startNs, globalSimCycles(),
                          globalModuleTicks(), _profiler.get());
        }
    }
    if (_powerMeter != nullptr) {
        std::ofstream f(_powerJsonPath);
        if (!f) {
            std::cerr << "cannot open power json file " << _powerJsonPath
                      << "\n";
            rc = 1;
        } else {
            writePowerReportJson(f, _powerMeter->report());
        }
    }
    if (_profiler != nullptr &&
        _profiler->mode() != HostProfiler::Mode::KpiOnly)
        _profiler->writeReport(std::cerr);
    if (!_stallReportPath.empty()) {
        try {
            const std::vector<RunStallReport> runs =
                analyzeStallStats(parseJson(combinedStatsJson()));
            writeBottleneckTable(std::cout, runs, /*top_n=*/5);
            std::ofstream f(_stallReportPath);
            if (!f) {
                std::cerr << "cannot open stall report file "
                          << _stallReportPath << "\n";
                rc = 1;
            } else {
                writeBottleneckJson(f, runs);
            }
        } catch (const ConfigError &e) {
            std::cerr << "stall report failed: " << e.what() << "\n";
            rc = 1;
        }
    }
    return rc;
}

} // namespace beethoven
