/**
 * @file
 * The cycle-driven simulator that clocks an elaborated Beethoven SoC.
 */

#ifndef BEETHOVEN_SIM_SIMULATOR_H
#define BEETHOVEN_SIM_SIMULATOR_H

#include <functional>
#include <iosfwd>
#include <vector>

#include "base/stats.h"
#include "base/thread_annotations.h"
#include "base/types.h"
#include "sim/graph_record.h"
#include "sim/module.h"
#include "sim/wake_wheel.h"

namespace beethoven
{

class TraceSink;
class StallAccount;
class HostProfiler;
class PowerLedger;
class PowerMeter;

/**
 * Simulated cycles stepped by every Simulator on the calling thread
 * since it started; the numerator of the cycles-per-second KPI
 * (--perf-json). Thread-local, so runs on different threads count
 * independently: read it on the thread that simulates.
 */
u64 globalSimCycles();

/** Module ticks executed on the calling thread (cycles x SoC size). */
u64 globalModuleTicks();

/**
 * A live correctness invariant checked while the simulation runs.
 *
 * Implementations are event-driven (they subscribe to timelines or
 * queue hooks themselves); the simulator additionally calls check()
 * periodically and before final teardown so purely-cumulative
 * invariants (conservation counts, quiescence) get a chance to fire
 * with cycle context. Violations should report via fatal() after
 * dumping diagnostics.
 */
class Invariant
{
  public:
    virtual ~Invariant() = default;

    /** Periodic consistency check; @p cycle is the current cycle. */
    virtual void check(Cycle cycle) = 0;

    /** Short name used in diagnostics. */
    virtual const char *invariantName() const = 0;
};

/**
 * Which modules step() ticks (see DESIGN.md §3/§4a).
 *
 * Both kernels step cycle-by-cycle through the same loop and produce
 * bit-identical results; the event kernel skips the tick of every
 * quiescent module. Tick remains the reference kernel the differential
 * harness compares against.
 */
enum class SimKernel
{
    Tick, ///< tick every module every cycle (the naive reference)
    Event ///< tick only awake modules; sleepers wait for a wake
};

const char *simKernelName(SimKernel k);

/**
 * Clocks registered Modules.
 *
 * The simulator holds non-owning pointers; the elaborated SoC owns all
 * modules and queues and must outlive simulation.
 */
class Simulator
{
  public:
    Simulator();
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Register a module for ticking (called by Module's constructor).
     * It starts awake.
     */
    void registerModule(Module *m)
    {
        gSimThreadRole.assertHeld();
        m->_index = _modules.size();
        _modules.push_back(m);
        if (m->_index % 64 == 0) {
            _masks.push_back(0); // awake
            _masks.push_back(0); // next cycle
        }
        awakeWord(m->_index / 64) |= bit(m->_index);
        _graph.noteModule(m);
    }

    /**
     * The registration-time connectivity record consumed by the static
     * analyzer (src/analysis/, DESIGN.md §5d). Metadata only — never
     * read on the simulation fast path.
     */
    SimGraphRecord &graphRecord() { return _graph; }
    const SimGraphRecord &graphRecord() const { return _graph; }

    /** Register a stall account (called by StallAccount's constructor). */
    void registerStallAccount(StallAccount *a)
    {
        _stallAccounts.push_back(a);
    }

    /** Advance one cycle: tick the modules the kernel schedules. */
    void step();

    /** Advance @p n cycles. */
    void run(Cycle n);

    /**
     * Step until @p done returns true or @p max_cycles elapse.
     * @return true if the predicate was satisfied, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Cycle max_cycles);

    /** Current cycle (number of completed steps). */
    Cycle cycle() const { return _cycle; }

    /**
     * Next transaction tag of this run, numbered from 1. Tags are a
     * modeling convenience that lets monitors and timelines associate
     * request and response beats; they are not part of the AXI protocol
     * and carry no hardware cost.
     */
    u64 nextTag() { return _nextTag++; }

    /**
     * Select the stepping kernel (Event by default). Selecting Event
     * wakes every module (conservative: the first cycles re-establish
     * quiescence). Safe to call between steps only.
     */
    void setKernel(SimKernel k);
    SimKernel kernel() const { return _kernel; }

    /** True under the event kernel: sleep requests take effect. */
    bool eventKernel() const { return _kernel == SimKernel::Event; }

    /**
     * Register a callback that folds distributed counters (e.g.
     * per-NoC-node flit counts) into their stats scalars. Run by
     * publishStallStats before the stats tree is read.
     */
    void addStatFolder(std::function<void()> fn)
    {
        _statFolders.push_back(std::move(fn));
    }

    using CounterSampler = std::function<void(TraceSink &, Cycle)>;

    /**
     * Register a callback that emits counter samples (e.g. per-link NoC
     * occupancy) into the attached TraceSink. Run at every sampling
     * window boundary while a sink is attached; never run otherwise.
     */
    void addCounterSampler(CounterSampler fn)
    {
        _counterSamplers.push_back(std::move(fn));
    }

    /**
     * Wake @p m so it observes an event staged this cycle. Mirrors the
     * tick kernel's visibility exactly: a module at or before the
     * current tick cursor has already run this cycle, so its wake is
     * deferred to cycle+1 via the next-cycle mask; a module after the
     * cursor (or a wake arriving outside the tick phase) is woken in
     * place.
     * No-op under the tick kernel or when @p m is already awake.
     */
    void wakeNow(Module *m);

    /**
     * Arm a wake for @p m at cycle @p at (clamped to wakeNow when
     * @p at is not in the future). Consecutive re-arms for the same
     * cycle are deduplicated per module.
     */
    void wakeAt(Module *m, Cycle at);

    /** Mark @p m quiescent (the Module::requestSleep back end). */
    void
    sleepModule(Module *m)
    {
        gSimThreadRole.assertHeld();
        awakeWord(m->_index / 64) &= ~bit(m->_index);
    }

    /** Modules awake right now (the event kernel's active set size). */
    std::size_t activeModules() const;

    /**
     * Armed wakes not yet delivered: the wheel's entries plus the
     * modules set in the next-cycle mask.
     */
    std::size_t pendingWakes() const;

    /**
     * Fault injection for the differential harness: silently drop
     * every @p period-th scheduled future wake (0 disables). A dropped
     * wake makes a sleeper oversleep, which the tick-vs-event
     * differential check must surface as a digest mismatch or hang.
     */
    void plantLostWakes(u64 period)
    {
        _plantLostWakePeriod = period;
        _scheduledWakes = 0;
    }

    /** Root statistics group for the simulated design. */
    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    /**
     * Fold every registered StallAccount into the stats tree (each under
     * its module's group) and record the elapsed cycle count as the root
     * "cycles" scalar. Idempotent; call before dumping stats.
     */
    void publishStallStats();

    const std::vector<StallAccount *> &stallAccounts() const
    {
        return _stallAccounts;
    }

    /**
     * Forward-progress notification for the hang watchdog. Called by
     * StallAccount on Busy classifications; uninstrumented modules that
     * do real work may also call it directly.
     */
    void noteProgress() { _lastProgress = _cycle; }

    /**
     * Arm the hang watchdog: if no module reports progress for more
     * than @p limit cycles, step() dumps hang diagnostics to stderr and
     * raises a ConfigError. 0 (the default) disarms it.
     */
    void setWatchdog(Cycle limit)
    {
        _watchdogLimit = limit;
        _lastProgress = _cycle;
    }

    /**
     * Add a diagnostics callback invoked by dumpHangDiagnostics (the
     * SoC registers DRAM in-flight and NoC occupancy dumpers here).
     */
    void addHangDumper(std::function<void(std::ostream &)> fn)
    {
        _hangDumpers.push_back(std::move(fn));
    }

    /** Dump every module's stall state plus registered diagnostics. */
    void dumpHangDiagnostics(std::ostream &os) const;

    /**
     * Register a live invariant (non-owning; the caller must
     * unregister before the invariant is destroyed). check() runs
     * every kInvariantPeriod cycles inside step().
     */
    void registerInvariant(Invariant *inv) { _invariants.push_back(inv); }

    void
    unregisterInvariant(Invariant *inv)
    {
        for (auto it = _invariants.begin(); it != _invariants.end(); ++it) {
            if (*it == inv) {
                _invariants.erase(it);
                return;
            }
        }
    }

    /** Run every registered invariant's periodic check now. */
    void
    checkInvariants()
    {
        for (Invariant *inv : _invariants)
            inv->check(_cycle);
    }

    const std::vector<Invariant *> &invariants() const
    {
        return _invariants;
    }

    /**
     * Attached event sink, or nullptr (the default). Instrumented
     * modules guard every record with this pointer, so simulation
     * without a sink pays only the null check. While a sink is
     * attached, every window boundary also emits the stall, host and
     * registered counter samples into it. The sink is not owned and
     * must outlive its attachment.
     */
    TraceSink *trace() const { return _trace; }
    void attachTrace(TraceSink *sink) { _trace = sink; }

    /**
     * Attached host profiler, or nullptr (the default). When attached,
     * step() counts every cycle with it and, on the one cycle in each
     * profiler period that it measures, reads the clock after every
     * tick it runs, attributing wall-clock time to the modules the
     * kernel actually ticked. When null, the only cost is one pointer
     * check per step. Not owned; must outlive its attachment.
     * Detaching (nullptr) is allowed between runs.
     */
    void attachHostProfiler(HostProfiler *prof)
    {
        _hostProf = prof;
        _profIds.clear();
    }

    /**
     * Energy decomposition of the elaborated SoC, or nullptr. Set by
     * the SoC after elaboration; read by the attached PowerMeter and
     * by EnergyConservationInvariant. Not owned.
     */
    const PowerLedger *powerLedger() const { return _powerLedger; }
    void setPowerLedger(const PowerLedger *ledger)
    {
        _powerLedger = ledger;
    }

    /**
     * Attached power meter, or nullptr (the default). When attached,
     * the meter samples the ledger at every window boundary. Not
     * owned; must outlive its attachment.
     */
    void attachPowerMeter(PowerMeter *meter) { _powerMeter = meter; }

    /**
     * Cycles in one sampling window. At every multiple of it, after the
     * cycle advances, step() samples the attached PowerMeter and, while
     * a TraceSink is attached, emits the stall, host-profiler and
     * registered counter samples. A power of two, so the boundary test
     * is one mask.
     */
    static constexpr Cycle kSampleWindow = 1024;

  private:
    /**
     * Arm a future wake with dedup and planted-fault accounting, in the
     * next-cycle mask when a tick arms it for cycle+1, else on the
     * wheel.
     */
    void scheduleWake(Module *m, Cycle at) BTH_REQUIRES(gSimThreadRole);

    /** Module @p i's bit in its mask word (word i / 64). */
    static u64 bit(std::size_t i) { return u64(1) << (i % 64); }

    /** Word @p w of the awake mask and of the next-cycle mask. */
    u64 &awakeWord(std::size_t w) { return _masks[2 * w]; }
    u64 &nextWord(std::size_t w) { return _masks[2 * w + 1]; }

    /** The window-boundary work described at kSampleWindow. */
    void sampleWindow();

    Cycle _cycle = 0;
    u64 _nextTag = 1;
    SimKernel _kernel = SimKernel::Event;
    std::vector<Module *> _modules;
    /**
     * Two masks of one bit per module in tick order, 64 to a word,
     * with word w of each side by side: the awake mask (the modules the
     * event kernel ticks this cycle) and the next-cycle mask (wakes a
     * tick armed for the next cycle, which step() ORs in). The tick
     * kernel never reads them.
     */
    std::vector<u64> _masks BTH_GUARDED_BY(gSimThreadRole);
    /** Wakes two or more cycles out, or armed between steps. */
    WakeWheel _wheel BTH_GUARDED_BY(gSimThreadRole);
    bool _inTickPhase BTH_GUARDED_BY(gSimThreadRole) = false;
    /** Index of the module currently ticking. */
    std::size_t _cursor BTH_GUARDED_BY(gSimThreadRole) = 0;
    u64 _plantLostWakePeriod = 0;
    u64 _scheduledWakes = 0;
    std::vector<StallAccount *> _stallAccounts;
    StatGroup _stats{"soc"};
    TraceSink *_trace = nullptr;
    HostProfiler *_hostProf = nullptr;
    const PowerLedger *_powerLedger = nullptr;
    PowerMeter *_powerMeter = nullptr;
    /** Module index -> profiler component id (built lazily on use). */
    std::vector<u32> _profIds;

    Cycle _watchdogLimit = 0; ///< 0 = watchdog off
    Cycle _lastProgress = 0;
    std::vector<std::function<void(std::ostream &)>> _hangDumpers;
    std::vector<Invariant *> _invariants;
    std::vector<std::function<void()>> _statFolders;
    std::vector<CounterSampler> _counterSamplers;

    /**
     * Registration-time metadata for the static analyzer; cold after
     * elaboration, so kept past the per-cycle state above to leave the
     * step loop's working set contiguous.
     */
    SimGraphRecord _graph;

    static_assert((kSampleWindow & (kSampleWindow - 1)) == 0,
                  "the window boundary test is a mask");

    /** Cycles between periodic invariant checks. */
    static constexpr Cycle kInvariantPeriod = 256;
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_SIMULATOR_H
