/**
 * @file
 * Shared command-line plumbing for the bench/ executables.
 *
 * Every bench main constructs a BenchCli, which strips the
 * observability flags from argv before the bench sees them:
 *
 *   --trace=FILE        attachable Chrome-trace sink; FILE gets the
 *                       trace_event JSON, and a text summary + cycle
 *                       profile are printed after the run
 *   --stats-json=FILE   machine-readable stats: one JSON object per
 *                       recordStats() label
 *   --stall-report=FILE bottleneck analysis of the stall-attribution
 *                       stats: ranked table on stdout, JSON to FILE
 *   --perf-json=FILE    run-level host KPIs (schema beethoven-perf-1):
 *                       wall_ms, sim_cycles, cycles_per_sec,
 *                       peak_rss_kb, allocation churn, cycles/sec
 *                       heartbeat; a one-off diagnostic (perfbench/
 *                       is the benchmark)
 *   --host-profile[=M]  attribute wall-clock to the modules the
 *                       kernel ticks; M is "scoped", or "sample:N"
 *                       (measure every Nth cycle; bare --host-profile
 *                       means sample:64). Breakdown prints to stderr
 *                       and lands in --perf-json output
 *   --power-json=FILE   power/energy telemetry (schema
 *                       beethoven-power-1): per recorded run the total
 *                       joules, avg/peak watts, static floor, per-SLR
 *                       and per-component breakdown, and — when the
 *                       bench reports an operation count — energy per
 *                       op. tools/power_report renders these files.
 *                       With --trace, the trace also gets windowed
 *                       "power/<component>" watt counter-tracks
 *   --watchdog=N        arm the simulator hang watchdog (abort after N
 *                       cycles without forward progress; 0 = off)
 *   --sim-kernel=K      simulation kernel: "event" (default; quiescent
 *                       modules sleep until a queue event re-arms
 *                       them) or "tick" (the plain tick-everything
 *                       reference kernel). Both produce bit-identical
 *                       stats digests
 *   --no-invariants     detach the live SocInvariants observers (AXI
 *                       legality, response accounting, NoC occupancy);
 *                       they are on by default and abort the bench on
 *                       the first violation
 *   --quick             benches that honor it shrink their sweep (used
 *                       by the ctest observability fixture)
 *
 * Output paths are probe-opened at startup: a path that cannot be
 * written (missing directory, no permission) or is empty
 * (`--trace=`) is a fatal usage error (exit 2) before any simulation
 * runs, not a surprise after it. So is a --watchdog value that is not
 * a decimal count.
 *
 * The sink is owned here; benches attach it per-run with
 * `soc.sim().attachTrace(cli.sink())` (a nullptr attach is a no-op
 * path, so unconditional attachment keeps call sites branch-free).
 */

#ifndef BEETHOVEN_BENCH_COMMON_BENCH_CLI_H
#define BEETHOVEN_BENCH_COMMON_BENCH_CLI_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.h"
#include "trace/trace.h"

namespace beethoven
{

class AcceleratorSoc;
class HostProfiler;
class PowerMeter;
class Simulator;
class SocInvariants;
enum class SimKernel;

class BenchCli
{
  public:
    /** Parse and remove recognized flags from @p argc / @p argv. */
    BenchCli(int &argc, char **argv);

    ~BenchCli(); // out of line: HostProfiler is incomplete here

    /** The trace sink, or nullptr when --trace was not given. */
    TraceSink *sink() { return _sink.get(); }

    bool quick() const { return _quick; }
    bool tracing() const { return _sink != nullptr; }

    /** The --sim-kernel selection (default SimKernel::Event). */
    SimKernel simKernel() const;

    /** Arm @p sim's hang watchdog when --watchdog=N was given. */
    void armWatchdog(Simulator &sim) const;

    /**
     * Attach the observability this invocation asked for to @p sim:
     * the hang watchdog (--watchdog) and the host profiler
     * (--host-profile / --perf-json). Benches call this once per
     * constructed Simulator, right after elaboration; the profiler
     * accumulates across all instrumented simulators in the process.
     */
    void instrument(Simulator &sim) const;

    /** The host profiler, or nullptr when neither perf flag was given. */
    HostProfiler *profiler() const { return _profiler.get(); }

    /** The power meter, or nullptr when --power-json was not given. */
    PowerMeter *powerMeter() const { return _powerMeter.get(); }

    bool invariantsEnabled() const { return _invariants; }

    /**
     * Attach the live invariant observers (verify/invariants.h) to
     * @p soc, unless --no-invariants was given. The returned guard
     * must not outlive the SoC; destroy (or checkFinal()) it before
     * tearing the SoC down.
     */
    std::unique_ptr<SocInvariants> armInvariants(AcceleratorSoc &soc) const;

    /**
     * Snapshot @p stats as JSON under @p label. Serializes immediately
     * so the caller may destroy the SoC afterwards.
     */
    void recordStats(const std::string &label, const StatGroup &stats);

    /**
     * Publish @p sim's stall accounts into its stats tree, then
     * snapshot them under @p label. Benches use this overload so the
     * stall-attribution scalars land in --stats-json / --stall-report
     * output.
     */
    void recordStats(const std::string &label, Simulator &sim);

    /**
     * Like recordStats(label, sim), but also tells the power meter how
     * many operations the run performed, so --power-json output gets
     * an energy-per-op figure for this run.
     */
    void recordStats(const std::string &label, Simulator &sim,
                     double ops);

    /**
     * Add an analytic reference row (published watts + throughput) to
     * the --power-json report; no-op when no power flag was given.
     */
    void addPowerReference(const std::string &label, double watts,
                           double ops_per_sec);

    /**
     * Write the trace, stats and stall-report files (if requested) and
     * print the trace summary + cycle profile. @return process exit
     * code.
     */
    int finish();

  private:
    std::string combinedStatsJson() const;

    std::string _benchName;
    std::string _tracePath;
    std::string _statsPath;
    std::string _stallReportPath;
    std::string _perfPath;
    std::string _powerJsonPath;
    bool _quick = false;
    bool _invariants = true;
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
