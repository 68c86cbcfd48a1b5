/**
 * @file
 * perfbench_driver — runs one benchmark workload for a fixed host-time
 * budget and prints its metrics.
 *
 *   perfbench_driver --workload=machsuite|memcpy_stream|fuzz --seed=N
 *                    --seconds=S --trace=0|1 [--pins=FILE]
 *                    [--trace-out=FILE] [--smoke] [--plant-wrong]
 *                    [--commit=SHA --dirty=0|1 --source-hash=H]
 *
 * --trace=0 repeats untraced rounds until S seconds have passed and
 * reports the end-to-end metrics: medians over every round but the
 * first (a warm-up), each host time scaled to a reference host speed by
 * the probe timed around its round (probe.cc). --trace=1 runs
 * the isolated layer drives, then alternates traced and untraced
 * rounds, and reports the per-layer metrics; exact counters come from
 * the first traced round, host times from every traced round.
 *
 * The last stdout line is one JSON object: workload, provenance, ops,
 * ops_failed, the first failure messages and every metric with its
 * unit. Exit code 0 when the run completed (failed ops included), 2 on
 * bad usage or an unreadable pins file.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "base/json.h"
#include "base/log.h"
#include "bench.h"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool plantWrong = false;
    std::string pinsPath;
    std::string traceOut;
    std::string commit = "unknown";
    std::string dirty = "unknown";
    std::string sourceHash = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload=machsuite|"
                 "memcpy_stream|fuzz --seed=N --seconds=S --trace=0|1\n"
                 "       [--pins=FILE] [--trace-out=FILE] [--smoke] "
                 "[--plant-wrong]\n"
                 "       [--commit=SHA] [--dirty=0|1] "
                 "[--source-hash=H]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("bad --seed '" + val + "'");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds >= 0))
                usage("bad --seconds '" + val + "'");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace '" + val + "'");
            a.trace = val == "1";
        } else if (arg == "--smoke") {
            a.smoke = true;
        } else if (arg == "--plant-wrong") {
            a.plantWrong = true;
        } else if (key == "--pins") {
            a.pinsPath = val;
        } else if (key == "--trace-out") {
            a.traceOut = val;
        } else if (key == "--commit") {
            a.commit = val;
        } else if (key == "--dirty") {
            a.dirty = val;
        } else if (key == "--source-hash") {
            a.sourceHash = val;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (a.workload != "machsuite" && a.workload != "memcpy_stream" &&
        a.workload != "fuzz")
        usage("unknown --workload '" + a.workload + "'");
    return a;
}

/** The default seed's behaviour fingerprint for one workload. */
struct Pin
{
    bool present = false;
    u64 seed = 0;
    u64 cycles = 0;
    std::string hash;
};

Pin
loadPin(const std::string &path, const std::string &workload)
{
    Pin pin;
    if (path.empty())
        return pin;
    std::ifstream f(path);
    if (!f)
        usage("cannot read pins file " + path);
    std::stringstream ss;
    ss << f.rdbuf();
    beethoven::JsonValue doc;
    try {
        doc = beethoven::parseJson(ss.str());
    } catch (const beethoven::ConfigError &e) {
        usage("malformed pins file " + path + ": " + e.what());
    }
    const beethoven::JsonValue *w = doc.find(workload);
    if (w == nullptr)
        return pin;
    const auto *seed = w->find("seed");
    const auto *cycles = w->find("sim_cycles");
    const auto *hash = w->find("stats_hash");
    if (seed == nullptr || cycles == nullptr || hash == nullptr ||
        !seed->isNumber() || !cycles->isNumber() || !hash->isString())
        usage("malformed pin for " + workload + " in " + path);
    pin.present = true;
    pin.seed = static_cast<u64>(seed->number);
    pin.cycles = static_cast<u64>(cycles->number);
    pin.hash = hash->string;
    return pin;
}

std::string
hex(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** Spans named @p name among spans [begin, end) of @p t. */
struct SpanSet
{
    std::vector<double> ms;
    u64 ns = 0;
    u64 allocs = 0;
    double work = 0;
};

SpanSet
spansNamed(const Tracer &t, const char *name, std::size_t begin = 0,
           std::size_t end = SIZE_MAX)
{
    SpanSet s;
    const auto &spans = t.spans();
    for (std::size_t i = begin; i < std::min(end, spans.size()); ++i) {
        if (std::strcmp(spans[i].name, name) != 0)
            continue;
        const u64 d = spans[i].endNs - spans[i].startNs;
        s.ms.push_back(double(d) / 1e6);
        s.ns += d;
        s.allocs += spans[i].allocs;
        s.work += spans[i].work;
    }
    return s;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
cps(const RoundResult &r)
{
    return ratio(double(r.measure.cycles), double(r.measure.ns) / 1e9);
}

/** Probe time of the reference host the end-to-end times are scaled to. */
constexpr double kReferenceProbeNs = 2.5e6;

/**
 * End-to-end metrics, and the same host times unscaled in @p raw. The
 * first round warms caches and the allocator; it is checked like every
 * round but left out of the medians when later rounds exist.
 */
std::vector<Metric>
endToEnd(const std::vector<RoundResult> &rounds, std::vector<Metric> &raw)
{
    std::vector<double> rate, setup, total, probe;
    std::vector<double> raw_rate, raw_setup, raw_total;
    for (std::size_t i = rounds.size() > 1 ? 1 : 0; i < rounds.size(); ++i) {
        const RoundResult &r = rounds[i];
        // Seconds on the reference host: a round whose probe ran slow
        // ran on a slow host.
        const double scale = kReferenceProbeNs / double(r.probeNs);
        raw_rate.push_back(cps(r));
        raw_setup.push_back(double(r.setup.ns) / 1e9);
        raw_total.push_back(double(r.totalNs) / 1e9);
        rate.push_back(raw_rate.back() / scale);
        setup.push_back(raw_setup.back() * scale);
        total.push_back(raw_total.back() * scale);
        probe.push_back(double(r.probeNs) / 1e6);
    }
    raw = {
        {"sim_cps", median(raw_rate), "cycles/s"},
        {"setup_s", median(raw_setup), "s"},
        {"total_s", median(raw_total), "s"},
        {"probe_ms", median(probe), "ms"},
    };
    return {
        {"sim_cps", median(rate), "cycles/s"},
        {"setup_s", median(setup), "s"},
        {"total_s", median(total), "s"},
        {"peak_rss_mb", double(beethoven::peakRssKb()) / 1024.0, "MB"},
    };
}

std::vector<Metric>
perLayer(const Tracer &t, std::size_t first_end,
         const std::vector<RoundResult> &traced,
         const std::vector<RoundResult> &untraced,
         const std::map<std::string, DriveResult> &drives)
{
    const RoundResult &r1 = traced.front();
    const ModelTally &m = r1.model;
    const SpanSet elab = spansNamed(t, "elab");
    const SpanSet elab1 = spansNamed(t, "elab", 0, first_end);
    const SpanSet cases1 = spansNamed(t, "case", 0, first_end);
    const SpanSet dma = spansNamed(t, "dma");
    Counters measured;
    for (const RoundResult &r : traced)
        measured += r.measure;
    std::vector<double> traced_cps, untraced_cps;
    for (const RoundResult &r : traced)
        traced_cps.push_back(cps(r));
    for (const RoundResult &r : untraced)
        untraced_cps.push_back(cps(r));
    const double cycles1 = double(r1.measure.cycles);

    std::vector<Metric> out = {
        {"elab.ms.p50", percentile(elab.ms, 0.5), "ms"},
        {"elab.ms.p90", percentile(elab.ms, 0.9), "ms"},
        {"elab.allocs", ratio(double(elab1.allocs), double(elab1.ms.size())),
         "count"},
        {"elab.count", double(elab1.ms.size()), "count"},
        {"elab.teardown_ms", mean(spansNamed(t, "teardown").ms), "ms"},
        {"runtime.invoke_ms", mean(spansNamed(t, "invoke").ms), "ms"},
        {"cmd.mmio_txns_per_op",
         ratio(double(r1.mmioTxns), double(r1.mmioOps)), "count"},
        {"runtime.wait_share",
         ratio(double(spansNamed(t, "wait").ns),
               double(spansNamed(t, "measure").ns)),
         "ratio"},
        {"runtime.dma_ms_per_mb",
         ratio(double(dma.ns) / 1e6, dma.work / double(1 << 20)), "ms/MB"},
        {"sim.cycles", cycles1, "cycles"},
        {"sim.ticks_per_cycle", ratio(double(r1.measure.ticks), cycles1),
         "count"},
        {"sim.ns_per_tick",
         ratio(double(measured.ns), double(measured.ticks)), "ns"},
        {"sim.allocs_per_cycle", ratio(double(r1.measure.allocs), cycles1),
         "count"},
        {"sim.alloc_bytes_per_cycle",
         ratio(double(r1.measure.allocBytes), cycles1), "B"},
    };
    const char *queues[] = {"queue.read_beat", "queue.spad_response",
                            "queue.pod_flit"};
    double q_ns = 0, q_allocs = 0;
    for (const char *q : queues) {
        q_ns += drives.at(q).nsPerOp / 3;
        q_allocs += drives.at(q).allocsPerOp / 3;
    }
    out.push_back({"queue.ns_per_op", q_ns, "ns"});
    out.push_back({"queue.allocs_per_op", q_allocs, "count"});
    for (const char *q : queues) {
        out.push_back({std::string("queue.ns_per_op.") + (q + 6),
                       drives.at(q).nsPerOp, "ns"});
        out.push_back({std::string("queue.allocs_per_op.") + (q + 6),
                       drives.at(q).allocsPerOp, "count"});
    }
    const std::vector<Metric> rest = {
        {"wheel.ns_per_op", drives.at("wheel").nsPerOp, "ns"},
        {"step.ns_empty", drives.at("step.empty").nsPerOp, "ns"},
        {"dram.ns_per_beat.single_id", drives.at("dram.single_id").nsPerOp,
         "ns"},
        {"dram.ns_per_beat.multi_id", drives.at("dram.multi_id").nsPerOp,
         "ns"},
        {"dram.beats_per_cycle", ratio(m.dramBeats, m.cycles), "count"},
        {"dram.row_hit_ratio", ratio(m.rowHits, m.rowHits + m.rowMisses),
         "ratio"},
        {"dram.busy_frac", ratio(m.dramBusy, m.dramCycles), "ratio"},
        {"dram.stall_frac", ratio(m.dramStall, m.dramCycles), "ratio"},
        {"noc.ns_per_hop", drives.at("noc").nsPerOp, "ns"},
        {"noc.hops_per_cycle", ratio(m.nocFlits, m.cycles), "count"},
        {"noc.stall_down_frac", ratio(m.nocDownstream, m.nocCycles),
         "ratio"},
        {"spad.ns_per_access", drives.at("spad").nsPerOp, "ns"},
        {"spad.allocs_per_access", drives.at("spad").allocsPerOp, "count"},
        {"reader.bytes_per_cycle", ratio(m.readerBytes, m.cycles), "B"},
        {"writer.bytes_per_cycle", ratio(m.writerBytes, m.cycles), "B"},
        {"reader.stall_mem_frac", ratio(m.readerStallMem, m.readerCycles),
         "ratio"},
        {"accel.busy_frac", ratio(m.coreBusy, m.coreCycles), "ratio"},
        {"case.ms.p50", percentile(spansNamed(t, "case").ms, 0.5), "ms"},
        {"case.ms.p99", percentile(spansNamed(t, "case").ms, 0.99), "ms"},
        {"case.cycles", ratio(cycles1, double(cases1.ms.size())),
         "cycles"},
        {"verify.check_ms", mean(spansNamed(t, "check").ms), "ms"},
        {"trace.overhead",
         ratio(median(untraced_cps), median(traced_cps)) - 1.0, "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    beethoven::setInformEnabled(false);
    const Pin pin = loadPin(args.pinsPath, args.workload);

    std::map<std::string, std::string> prov = {
        {"commit", args.commit},
        {"dirty", args.dirty},
        {"source_hash", args.sourceHash},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", PERFBENCH_COMPILER},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"seed", std::to_string(args.seed)},
        {"kernel", "event"},
        {"workload", args.workload},
        {"trace", args.trace ? "1" : "0"},
        {"scale", args.smoke ? "smoke" : "full"},
    };

    auto round = args.workload == "machsuite"
                     ? runMachsuiteRound
                     : args.workload == "memcpy_stream" ? runMemcpyRound
                                                        : runFuzzRound;
    const WorkloadOptions wo{args.seed, args.smoke, args.plantWrong};
    Tracer traced(true), untraced(false);
    std::vector<RoundResult> traced_rounds, untraced_rounds;
    std::map<std::string, DriveResult> drives;
    std::size_t first_end = 0;

    const u64 start = nowNs();
    const u64 budget = static_cast<u64>(args.seconds * 1e9);
    try {
        if (args.trace) {
            drives = runLayerDrives(args.smoke);
            traced.reserve(1 << 17);
            // Alternate traced and untraced rounds so that their cps
            // medians (trace.overhead) see the same host conditions.
            do {
                const bool tr = traced_rounds.size() <=
                                untraced_rounds.size();
                if (tr) {
                    traced_rounds.push_back(round(wo, traced));
                    if (traced_rounds.size() == 1)
                        first_end = traced.spans().size();
                } else {
                    untraced_rounds.push_back(round(wo, untraced));
                }
            } while (nowNs() - start < budget || untraced_rounds.empty());
        } else {
            // Each round is timed between two host-speed probes.
            u64 probe = probeHostNs();
            do {
                untraced_rounds.push_back(round(wo, untraced));
                const u64 next = probeHostNs();
                untraced_rounds.back().probeNs = (probe + next) / 2;
                probe = next;
            } while (nowNs() - start < budget);
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }

    // Failure accounting, including divergence from the pinned
    // behaviour of the default seed at full size.
    u64 ops = 0, failed = 0;
    std::vector<std::string> failures;
    const bool pinned = pin.present && !args.smoke && pin.seed == args.seed;
    for (auto *rounds : {&traced_rounds, &untraced_rounds}) {
        for (RoundResult &r : *rounds) {
            if (pinned &&
                (r.pinCycles != pin.cycles || hex(r.statsHash) != pin.hash))
                r.fail("diverged from pinned behaviour: sim.cycles " +
                           std::to_string(r.pinCycles) + " stats_hash " +
                           hex(r.statsHash) + " (pinned " +
                           std::to_string(pin.cycles) + " " + pin.hash +
                           ")",
                       r.ops - std::min(r.ops, r.failed));
            ops += r.ops;
            failed += std::min(r.ops, r.failed);
            for (const std::string &f : r.failures) {
                if (failures.size() < 8)
                    failures.push_back(f);
            }
        }
    }
    for (auto *rounds : {&traced_rounds, &untraced_rounds}) {
        for (const RoundResult &r : *rounds) {
            std::printf("round %s: setup_s=%.6f measure_s=%.6f "
                        "total_s=%.6f sim_cps=%.1f probe_ms=%.4f\n",
                        rounds == &traced_rounds ? "traced" : "untraced",
                        double(r.setup.ns) / 1e9, double(r.measure.ns) / 1e9,
                        double(r.totalNs) / 1e9, cps(r),
                        double(r.probeNs) / 1e6);
        }
    }
    const RoundResult &ref =
        args.trace ? traced_rounds.front() : untraced_rounds.front();
    std::cout << "pin " << args.workload << " seed=" << args.seed
              << " sim_cycles=" << ref.pinCycles
              << " stats_hash=" << hex(ref.statsHash)
              << (pinned ? " (checked)" : " (not checked)") << "\n";
    for (const std::string &f : failures)
        std::cerr << "perfbench_driver: failed: " << f << "\n";

    std::vector<Metric> raw;
    const std::vector<Metric> metrics =
        args.trace ? perLayer(traced, first_end, traced_rounds,
                              untraced_rounds, drives)
                   : endToEnd(untraced_rounds, raw);
    for (const Metric &m : raw)
        std::printf("unscaled median %s=%.6g %s\n", m.name.c_str(), m.value,
                    m.unit);

    if (args.trace && !args.traceOut.empty()) {
        std::ofstream f(args.traceOut);
        if (!f) {
            std::cerr << "perfbench_driver: cannot write " << args.traceOut
                      << "\n";
            return 2;
        }
        traced.writeJson(f, prov);
        std::cout << "self time (ms) per span, " << traced_rounds.size()
                  << " traced rounds:\n";
        for (const auto &[name, st] : traced.selfTimes()) {
            std::printf("  %-14s n=%-7zu total=%12.3f self=%12.3f\n",
                        name.c_str(), st.count, double(st.totalNs) / 1e6,
                        double(st.selfNs) / 1e6);
        }
    }

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":";
    writeJsonString(os, args.workload);
    os << ",\"rounds\":" << (traced_rounds.size() + untraced_rounds.size())
       << ",\"ops\":" << ops << ",\"ops_failed\":" << failed
       << ",\"provenance\":{";
    bool first = true;
    for (const auto &[k, v] : prov) {
        os << (first ? "" : ",");
        first = false;
        writeJsonString(os, k);
        os << ':';
        writeJsonString(os, v);
    }
    os << "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        os << (i ? "," : "");
        writeJsonString(os, failures[i]);
    }
    os << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? "," : "");
        writeJsonString(os, metrics[i].name);
        os << ":{\"value\":"
           << (std::isfinite(metrics[i].value) ? metrics[i].value : 0.0)
           << ",\"unit\":\"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}
