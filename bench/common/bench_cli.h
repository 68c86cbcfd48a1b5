/**
 * @file
 * Shared command-line plumbing for the bench/ executables.
 *
 * Every bench main constructs a BenchCli, which parses the whole
 * command line. A bench accepts exactly these arguments:
 *
 *   --quick             shrink the sweep (the ctest fixtures and the
 *                       golden digests use it)
 *   --trace=FILE        attachable Chrome-trace sink; FILE gets the
 *                       trace_event JSON, and a text summary + cycle
 *                       profile are printed after the run
 *   --stats-json=FILE   machine-readable stats: one JSON object per
 *                       recordStats() label. tools/bottleneck_report
 *                       ranks its stall attribution
 *   --watchdog=N        arm the simulator hang watchdog (abort after N
 *                       cycles without forward progress; 0 = off)
 *   --sim-kernel=K      simulation kernel: "event" (default; quiescent
 *                       modules sleep until a queue event re-arms
 *                       them) or "tick" (the plain tick-everything
 *                       reference kernel). Both produce bit-identical
 *                       stats digests
 *   --perf-json=FILE    run-level host KPIs (schema beethoven-perf-2):
 *                       wall_ms, sim_cycles, cycles_per_sec,
 *                       peak_rss_kb, allocation churn and, with
 *                       --host-profile, the host-time breakdown; a
 *                       one-off diagnostic (perfbench/ is the
 *                       benchmark)
 *   --host-profile      attribute wall-clock to the modules the kernel
 *                       ticks, timing one cycle in 64. The ranked
 *                       breakdown prints to stderr; with --trace the
 *                       trace also gets "host/<component>" tracks
 *   --power-json=FILE   power/energy telemetry (schema
 *                       beethoven-power-1): per recorded run the total
 *                       joules, avg/peak watts, static floor, per-SLR
 *                       and per-component breakdown, and — when the
 *                       bench reports an operation count — energy per
 *                       op. tools/power_report renders these files.
 *                       With --trace, the trace also gets windowed
 *                       "power/<component>" watt counter-tracks
 *
 * Anything else is a usage error, and so is a value these cannot
 * use: an output path that is empty (`--trace=`) or cannot be
 * written, a --watchdog that is not a decimal count, an unknown
 * kernel. The bench then exits 2, naming the argument, before any
 * simulation runs.
 */

#ifndef BEETHOVEN_BENCH_COMMON_BENCH_CLI_H
#define BEETHOVEN_BENCH_COMMON_BENCH_CLI_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace beethoven
{

class HostProfiler;
class PowerMeter;
class Simulator;

class BenchCli
{
  public:
    /** Parse every argument; exit 2 on one the bench cannot honour. */
    BenchCli(int argc, char **argv);

    ~BenchCli(); // out of line: HostProfiler is incomplete here

    bool quick() const { return _quick; }

    /** The power meter, or nullptr when --power-json was not given. */
    PowerMeter *powerMeter() const { return _powerMeter.get(); }

    /**
     * Attach what this invocation asked for to @p sim: the trace sink
     * (opening a trace process named @p label), the --sim-kernel
     * selection, the hang watchdog, the host profiler and the power
     * meter. Benches call this once per constructed Simulator, right
     * after elaboration; the profiler and the meter accumulate across
     * every simulator the process instruments.
     */
    void instrument(Simulator &sim, const std::string &label);

    /**
     * Publish @p sim's stall accounts into its stats tree and snapshot
     * the tree under @p label for --stats-json (serialized now, so the
     * caller may destroy the SoC afterwards). With --power-json, also
     * record the run's energy; a nonzero @p ops (operations the run
     * performed) adds an energy-per-op figure.
     */
    void recordStats(const std::string &label, Simulator &sim,
                     double ops = 0.0);

    /**
     * Add an analytic reference row (published watts + throughput) to
     * the --power-json report; no-op when no power flag was given.
     */
    void addPowerReference(const std::string &label, double watts,
                           double ops_per_sec);

    /**
     * Write the requested output files and print the trace summary,
     * cycle profile and host-time table. @return process exit code.
     */
    int finish();

  private:
    std::string _benchName;
    std::string _tracePath;
    std::string _statsPath;
    std::string _perfPath;
    std::string _powerJsonPath;
    bool _quick = false;
    /** --sim-kernel=tick; event is the default. A flag rather than a
     *  SimKernel so the header needn't see the enum. */
    bool _tickKernel = false;
    u64 _watchdog = 0;
    u64 _startNs = 0;
    std::unique_ptr<TraceSink> _sink;
    std::unique_ptr<HostProfiler> _profiler;
    std::unique_ptr<PowerMeter> _powerMeter;
    std::vector<std::pair<std::string, std::string>> _statsJson;
};

} // namespace beethoven

#endif // BEETHOVEN_BENCH_COMMON_BENCH_CLI_H
