/**
 * @file
 * Shared types of the repository benchmark driver: the span recorder
 * behind the traced run, the per-round result every workload returns,
 * and the modelled-statistics tally read from a SoC's stats tree.
 *
 * The driver is one single-threaded, closed-loop client: it issues a
 * command and blocks on its response, as the paper benches do. It only
 * calls the simulator's public APIs; the spans it records sit around
 * those calls, never inside the library.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.h"
#include "perf/kpi.h"
#include "sim/simulator.h"

namespace perfbench
{

using beethoven::u64;

/** Host monotonic clock in nanoseconds. */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Process-wide counters sampled at layer boundaries. Differences of
 * two samples give the work a phase did: host time, simulated cycles,
 * module ticks and heap allocations.
 */
struct Counters
{
    u64 ns = 0;
    u64 cycles = 0;
    u64 ticks = 0;
    u64 allocs = 0;
    u64 allocBytes = 0;

    static Counters
    sample()
    {
        const beethoven::AllocCounters a = beethoven::allocCounters();
        return {nowNs(), beethoven::globalSimCycles(),
                beethoven::globalModuleTicks(), a.allocs, a.bytes};
    }

    Counters
    operator-(const Counters &o) const
    {
        return {ns - o.ns, cycles - o.cycles, ticks - o.ticks,
                allocs - o.allocs, allocBytes - o.allocBytes};
    }

    Counters &
    operator+=(const Counters &o)
    {
        ns += o.ns;
        cycles += o.cycles;
        ticks += o.ticks;
        allocs += o.allocs;
        allocBytes += o.allocBytes;
        return *this;
    }
};

/** One recorded span: a named interval of host time and its cause. */
struct Span
{
    const char *name;
    int parent;     ///< index of the enclosing span, -1 for a root
    u64 startNs;
    u64 endNs;
    u64 allocs;     ///< operator-new calls inside the span
    double work;    ///< count recorded at the boundary (bytes, cycles)
};

/**
 * In-memory span recorder. Disabled (the untraced run) it records
 * nothing; enabled, every span is kept until the run ends and is then
 * written out whole.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name);

    /** Close span @p id (from open), attaching @p work to it. */
    void close(int id, double work);

    const std::vector<Span> &spans() const { return _spans; }

    /** Reserve room so recording allocates nothing while measured. */
    void reserve(std::size_t n) { _spans.reserve(n); }

    struct SelfTime
    {
        std::size_t count = 0;
        u64 totalNs = 0;
        u64 selfNs = 0; ///< duration minus what child spans cover
    };

    /** Per span name: count, total duration and self time. */
    std::map<std::string, SelfTime> selfTimes() const;

    /** Write the spans and the self-time table as one JSON document. */
    void writeJson(std::ostream &os,
                   const std::map<std::string, std::string> &provenance)
        const;

  private:
    bool _enabled;
    std::vector<Span> _spans;
    int _current = -1;
};

/**
 * A timed phase: adds its host-time and counter deltas to an optional
 * accumulator (always, so the untraced run can report phase times) and
 * records a span when tracing is on.
 */
class Phase
{
  public:
    Phase(Tracer &tracer, const char *name, Counters *acc = nullptr)
        : _tracer(tracer), _acc(acc), _id(tracer.open(name)),
          _start(acc != nullptr ? Counters::sample() : Counters{})
    {}

    ~Phase() { end(); }

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** Attach a work count (bytes moved, cycles run) to the span. */
    void work(double w) { _work = w; }

    /** End the phase early (idempotent). */
    void
    end()
    {
        if (_done)
            return;
        _done = true;
        if (_acc != nullptr)
            *_acc += Counters::sample() - _start;
        _tracer.close(_id, _work);
    }

  private:
    Tracer &_tracer;
    Counters *_acc;
    int _id;
    Counters _start;
    double _work = 0.0;
    bool _done = false;
};

/**
 * Modelled (simulated-time) statistics summed over every SoC a round
 * ran, read from the published stats tree. Ratios over these sums are
 * the per-layer "modelled" metrics.
 */
struct ModelTally
{
    double cycles = 0;
    double dramBeats = 0, rowHits = 0, rowMisses = 0;
    double dramBusy = 0, dramStall = 0, dramCycles = 0;
    double nocFlits = 0, nocDownstream = 0, nocCycles = 0;
    double readerBytes = 0, writerBytes = 0;
    double readerStallMem = 0, readerCycles = 0;
    double coreBusy = 0, coreCycles = 0;

    /** Add one SoC's stats-tree JSON (Simulator::stats().dumpJson). */
    void add(const std::string &stats_json);
};

/** Write @p s as a JSON string literal (control characters blanked). */
void writeJsonString(std::ostream &os, const std::string &s);

/** FNV-1a over @p s, folded into @p h. */
u64 fnv1a(const std::string &s, u64 h = 1469598103934665603ULL);

/** What one round of a workload did and how it went. */
struct RoundResult
{
    u64 ops = 0;
    u64 failed = 0;
    std::vector<std::string> failures; ///< first few failure messages

    Counters setup;   ///< everything before each measured phase
    Counters measure; ///< the measured phases
    u64 totalNs = 0;  ///< whole round, checks and teardown included

    u64 mmioTxns = 0; ///< MMIO transactions in measured phases
    u64 mmioOps = 0;  ///< commands those transactions carried

    /** Behaviour fingerprint: measured cycles and stats-tree hash. */
    u64 pinCycles = 0;
    u64 statsHash = 1469598103934665603ULL;

    ModelTally model; ///< filled in traced rounds only

    u64 probeNs = 0; ///< host-speed probe around the round (probeHostNs)

    void
    fail(const std::string &why, u64 n = 1)
    {
        failed += n;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Per-run settings every workload reads. */
struct WorkloadOptions
{
    u64 seed = 1;
    bool smoke = false;      ///< small sizes for the self-tests
    bool plantWrong = false; ///< corrupt one checked result on purpose
};

RoundResult runMachsuiteRound(const WorkloadOptions &opt, Tracer &tracer);
RoundResult runMemcpyRound(const WorkloadOptions &opt, Tracer &tracer);
RoundResult runFuzzRound(const WorkloadOptions &opt, Tracer &tracer);

/** Time one fixed host-speed probe, in nanoseconds. */
u64 probeHostNs();

/** One isolated layer drive's result. */
struct DriveResult
{
    double nsPerOp = 0;
    double allocsPerOp = 0;
};

/** Isolated drives of single layers (fixed inputs, any workload). */
std::map<std::string, DriveResult> runLayerDrives(bool smoke);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
