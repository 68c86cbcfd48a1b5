/**
 * @file
 * soc_perf — the simulator-speed KPI suite runner (DESIGN.md §4e).
 *
 * Executes the ten bench binaries as subprocesses, each with
 * --perf-json so the child reports its own wall time, simulated
 * cycles, cycles/sec, and peak RSS; repeats each bench N times and
 * takes the median; then runs one extra --host-profile pass per bench
 * to capture the top host-time components plus a --power-json capture
 * of the modeled power summary (avg watts, energy/op — DESIGN.md §4f;
 * simulated activity is deterministic, so piggybacking on the
 * profiled pass costs no extra run). The result is one
 * schema-versioned BENCH_<label>.json — the perf-trajectory record
 * committed per measured commit under perf/ (see README).
 *
 * Usage:
 *   soc_perf [--quick] [--runs=N] [--label=STR] [--out=FILE]
 *            [--bench-dir=DIR] [--bench=a,b,...] [--no-host-profile]
 *            [--bench-args=STR]
 *
 *   --quick            pass --quick to every bench (the committed
 *                      trajectory uses this: absolute numbers are
 *                      machine-scoped either way, quick keeps the
 *                      suite under a minute)
 *   --runs=N           timed repetitions per bench (default 3; the
 *                      median of N wall times is recorded)
 *   --label=STR        trajectory label (default "local"); the
 *                      default output file is BENCH_<label>.json
 *   --out=FILE         output path (probe-opened at startup)
 *   --bench-dir=DIR    directory holding the bench binaries (default:
 *                      <this-binary's-dir>/../bench)
 *   --bench=a,b        run only the named benches (subset smoke runs;
 *                      the ctest perf label uses this)
 *   --no-host-profile  skip the profiled pass (host_top stays empty
 *                      and no power summary is captured)
 *   --bench-args=STR   extra flags appended verbatim to every bench
 *                      invocation (e.g. "--sim-kernel=tick" to record
 *                      the reference kernel's trajectory)
 *
 * Exit codes: 0 suite recorded, 1 a bench failed or produced
 * unparseable KPIs, 2 usage error or unwritable output.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "base/json.h"
#include "base/log.h"
#include "perf/bench_json.h"
#include "power/power_json.h"

using namespace beethoven;

namespace
{

/** The suite, in the DESIGN.md experiment-index order. */
const char *const kBenches[] = {
    "fig4_memcpy",      "fig5_timeline",  "fig6_machsuite",
    "fig7_a3_pipeline", "fig8_floorplan", "table1_machsuite",
    "table2_resources", "table3_attention", "ablation_memory",
    "micro_framework",
};

void
usage(std::ostream &os)
{
    os << "usage: soc_perf [--quick] [--runs=N] [--label=STR] "
          "[--out=FILE]\n"
          "                [--bench-dir=DIR] [--bench=a,b,...] "
          "[--no-host-profile]\n"
          "                [--bench-args=STR]\n";
}

/** Directory of the running binary, for locating ../bench. */
std::string
selfDir()
{
#if defined(__linux__)
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string s(buf);
        const std::size_t slash = s.find_last_of('/');
        if (slash != std::string::npos)
            return s.substr(0, slash);
    }
#endif
    return ".";
}

/** Run @p cmd silently; returns the process exit code (-1 on spawn
 * failure or abnormal termination). */
int
runCommand(const std::string &cmd)
{
    const std::string full = cmd + " >/dev/null 2>&1";
    const int rc = std::system(full.c_str());
    if (rc == -1)
        return -1;
#if defined(__unix__) || defined(__APPLE__)
    if (WIFEXITED(rc))
        return WEXITSTATUS(rc);
    return -1;
#else
    return rc;
#endif
}

/** One child run's parsed --perf-json record. */
struct ChildKpis
{
    double wallMs = 0.0;
    u64 simCycles = 0;
    u64 moduleTicks = 0;
    u64 peakRssKb = 0;
    std::vector<HostTopEntry> hostTop;
};

double
numberOr(const JsonValue &obj, const char *key, double fallback)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->isNumber() ? v->number : fallback;
}

ChildKpis
parseChildKpis(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal("perf json %s was not produced", path.c_str());
    std::ostringstream ss;
    ss << f.rdbuf();
    const JsonValue v = parseJson(ss.str());
    const JsonValue *schema = v.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->string != "beethoven-perf-1")
        fatal("%s: not a beethoven-perf-1 record", path.c_str());
    ChildKpis k;
    k.wallMs = numberOr(v, "wall_ms", 0.0);
    k.simCycles = static_cast<u64>(numberOr(v, "sim_cycles", 0.0));
    k.moduleTicks = static_cast<u64>(numberOr(v, "module_ticks", 0.0));
    k.peakRssKb = static_cast<u64>(numberOr(v, "peak_rss_kb", 0.0));
    if (const JsonValue *hp = v.find("host_profile");
        hp != nullptr && hp->isObject()) {
        if (const JsonValue *comps = hp->find("components");
            comps != nullptr && comps->isArray()) {
            for (const JsonValue &c : comps->array) {
                if (!c.isObject())
                    continue;
                HostTopEntry e;
                if (const JsonValue *n = c.find("name");
                    n != nullptr && n->isString())
                    e.component = n->string;
                e.ns = static_cast<u64>(numberOr(c, "ns", 0.0));
                e.share = numberOr(c, "share", 0.0);
                k.hostTop.push_back(std::move(e));
            }
        }
    }
    return k;
}

/** Lower median of @p v (sorted copy); 0 when empty. */
template <typename T>
T
median(std::vector<T> v)
{
    if (v.empty())
        return T{};
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item = s.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool host_profile = true;
    unsigned runs = 3;
    std::string label = "local";
    std::string out_path;
    std::string bench_dir = selfDir() + "/../bench";
    std::string bench_args;
    std::vector<std::string> selected;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--no-host-profile") {
            host_profile = false;
        } else if (arg.rfind("--runs=", 0) == 0) {
            runs = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
            if (runs == 0) {
                std::cerr << "soc_perf: --runs must be >= 1\n";
                return 2;
            }
        } else if (arg.rfind("--label=", 0) == 0) {
            label = arg.substr(8);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg.rfind("--bench-dir=", 0) == 0) {
            bench_dir = arg.substr(12);
        } else if (arg.rfind("--bench=", 0) == 0) {
            selected = splitCommas(arg.substr(8));
        } else if (arg.rfind("--bench-args=", 0) == 0) {
            bench_args = arg.substr(13);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "soc_perf: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (out_path.empty())
        out_path = "BENCH_" + label + ".json";

    std::vector<std::string> benches;
    if (selected.empty()) {
        for (const char *b : kBenches)
            benches.push_back(b);
    } else {
        for (const std::string &b : selected) {
            if (std::find_if(std::begin(kBenches), std::end(kBenches),
                             [&](const char *k) { return b == k; }) ==
                std::end(kBenches)) {
                std::cerr << "soc_perf: unknown bench '" << b << "'\n";
                return 2;
            }
            benches.push_back(b);
        }
    }

    // Fail an unwritable trajectory path before an hour of runs, the
    // same startup probe contract bench_cli applies to its outputs.
    {
        std::ofstream probe(out_path, std::ios::app);
        if (!probe) {
            std::cerr << "soc_perf: cannot open " << out_path
                      << " for writing\n";
            return 2;
        }
    }

    BenchSuite suite;
    suite.label = label;
    suite.quick = quick;
    suite.runs = runs;
    const std::string tmp = out_path + ".child.json";

    for (std::size_t bi = 0; bi < benches.size(); ++bi) {
        const std::string &bench = benches[bi];
        std::string base_cmd = bench_dir + "/" + bench;
        if (!bench_args.empty())
            base_cmd += " " + bench_args;
        if (quick) {
            base_cmd += " --quick";
            // Keep the google-benchmark bench inside the quick budget.
            if (bench == "micro_framework")
                base_cmd += " --benchmark_min_time=0.01";
        }
        std::cerr << "[" << bi + 1 << "/" << benches.size() << "] "
                  << bench << ": " << runs << " timed run"
                  << (runs == 1 ? "" : "s")
                  << (host_profile ? " + 1 profiled" : "") << "\n";

        std::vector<double> walls;
        std::vector<u64> rss;
        ChildKpis first{};
        bool ok = true;
        for (unsigned r = 0; r < runs && ok; ++r) {
            const int rc =
                runCommand(base_cmd + " --perf-json=" + tmp);
            if (rc != 0) {
                std::cerr << "soc_perf: " << bench
                          << " exited with code " << rc << "\n";
                ok = false;
                break;
            }
            try {
                const ChildKpis k = parseChildKpis(tmp);
                if (r == 0)
                    first = k;
                else if (k.simCycles != first.simCycles)
                    std::cerr << "soc_perf: warning: " << bench
                              << " sim_cycles varied across runs ("
                              << first.simCycles << " vs "
                              << k.simCycles << ")\n";
                walls.push_back(k.wallMs);
                rss.push_back(k.peakRssKb);
            } catch (const ConfigError &e) {
                std::cerr << "soc_perf: " << e.what() << "\n";
                ok = false;
            }
        }
        if (!ok) {
            std::remove(tmp.c_str());
            return 1;
        }

        BenchPerfRecord rec;
        rec.name = bench;
        rec.wallMs = median(walls);
        rec.simCycles = first.simCycles;
        rec.moduleTicks = first.moduleTicks;
        rec.peakRssKb = median(rss);
        rec.cyclesPerSec =
            rec.wallMs > 0.0
                ? static_cast<double>(rec.simCycles) /
                      (rec.wallMs / 1000.0)
                : 0.0;

        if (host_profile) {
            const std::string tmp_power = out_path + ".power.json";
            const int rc = runCommand(
                base_cmd + " --host-profile --perf-json=" + tmp +
                " --power-json=" + tmp_power);
            if (rc != 0) {
                std::cerr << "soc_perf: profiled " << bench
                          << " run exited with code " << rc << "\n";
                std::remove(tmp.c_str());
                return 1;
            }
            try {
                ChildKpis k = parseChildKpis(tmp);
                if (k.hostTop.size() > 5)
                    k.hostTop.resize(5);
                rec.hostTop = std::move(k.hostTop);
            } catch (const ConfigError &e) {
                std::cerr << "soc_perf: " << e.what() << "\n";
                std::remove(tmp.c_str());
                return 1;
            }
            // Power is modeled from simulated activity, so one pass
            // is exact; a bench with no measured runs (e.g. the
            // google-benchmark harness) just records zeros, which the
            // suite writer omits.
            try {
                std::ifstream pf(tmp_power);
                if (pf) {
                    std::ostringstream ps;
                    ps << pf.rdbuf();
                    const PowerReport pr =
                        parsePowerReport(parseJson(ps.str()));
                    rec.avgWatts = pr.summaryAvgWatts();
                    rec.energyPerOpUj = pr.summaryEnergyPerOpUj();
                }
            } catch (const ConfigError &e) {
                std::cerr << "soc_perf: " << bench
                          << " power summary ignored: " << e.what()
                          << "\n";
            }
            std::remove(tmp_power.c_str());
        }
        suite.benches.push_back(std::move(rec));
    }
    std::remove(tmp.c_str());

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "soc_perf: cannot open " << out_path
                  << " for writing\n";
        return 2;
    }
    writeBenchSuiteJson(out, suite);
    std::cerr << "wrote " << suite.benches.size() << " bench record"
              << (suite.benches.size() == 1 ? "" : "s") << " to "
              << out_path << "\n";
    return 0;
}
