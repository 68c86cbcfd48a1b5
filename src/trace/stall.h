/**
 * @file
 * Per-module cycle accounting: where do the cycles go?
 *
 * Every instrumented module owns a StallAccount and classifies each
 * simulated cycle into a fixed taxonomy (see StallClass). Accounting is
 * cheap — one array increment per module per cycle — and lazy: cycles a
 * module never classifies are backfilled as Idle when the account is
 * published, so per-module class counts always sum to the total
 * simulated cycle count (the conservation invariant the stall tests
 * assert).
 *
 * Accounts register with the Simulator, which aggregates them into the
 * stats tree on publishStallStats(), emits them as Chrome-trace counter
 * tracks while tracing, and uses Busy classifications as the forward-
 * progress signal for the hang watchdog.
 */

#ifndef BEETHOVEN_TRACE_STALL_H
#define BEETHOVEN_TRACE_STALL_H

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "base/types.h"

namespace beethoven
{

class Simulator;
class StatGroup;
class TraceSink;

/**
 * The stall taxonomy (DESIGN.md §4d). Exactly one class per module per
 * cycle; when a module calls account() more than once in a cycle the
 * last classification wins.
 */
enum class StallClass : unsigned char
{
    Busy = 0,        ///< moved data / issued a command this cycle
    StallUpstream,   ///< valid-wait: input not presenting data
    StallDownstream, ///< ready-wait: output backpressured
    StallMem,        ///< waiting on outstanding memory transactions
    StallCmd,        ///< no command to work on
    Idle,            ///< nothing to do and nothing in flight
};

constexpr std::size_t kNumStallClasses = 6;

/** Stable snake_case name used in stats, reports, and trace tracks. */
const char *stallClassName(StallClass c);

class StallAccount
{
  public:
    /** Registers with @p sim; must outlive the simulator's use of it. */
    StallAccount(Simulator &sim, std::string name);

    StallAccount(const StallAccount &) = delete;
    StallAccount &operator=(const StallAccount &) = delete;

    /**
     * Classify the current cycle. Unclassified cycles since the last
     * call are backfilled as Idle; calling again in the same cycle
     * re-classifies it. A Busy classification notifies the simulator's
     * watchdog of forward progress.
     */
    void account(StallClass c);

    /**
     * Fold the counts into @p module_group under a "stall" child group,
     * backfilling Idle up to @p now first. Idempotent (scalars are
     * overwritten), so benches may publish after every run.
     */
    void publish(StatGroup &module_group, Cycle now);

    /** Emit per-class deltas since the last emission as counter tracks. */
    void emitCounters(TraceSink &ts, Cycle now);

    /** One-line state dump for hang diagnostics (no mutation). */
    void dumpState(std::ostream &os) const;

    /**
     * Class used to backfill unclassified gaps (default Idle). The
     * event kernel sets this when a module goes quiescent: the slept
     * cycles are attributed to the class the module was accounting
     * when it slept — exactly what the tick kernel, ticking the module
     * through the same uneventful span, would have accounted — so both
     * kernels publish identical taxonomies. account() resets it to
     * Idle after consuming a gap, matching the lazy-Idle default for
     * modules that classify sparsely while awake.
     */
    void setGapClass(StallClass c) { _gapClass = c; }
    StallClass gapClass() const { return _gapClass; }

    const std::string &name() const { return _name; }

    /**
     * Cycles classified as @p c up to the current cycle, the gap not
     * yet backfilled included, so the count reads the same under both
     * kernels at any cycle.
     */
    u64 count(StallClass c) const;

  private:
    Simulator &_sim;
    std::string _name;
    std::array<u64, kNumStallClasses> _counts{};
    std::array<u64, kNumStallClasses> _emitted{};
    Cycle _nextUnaccounted = 0; ///< first cycle not yet classified
    StallClass _current = StallClass::Idle;
    StallClass _gapClass = StallClass::Idle;
};

} // namespace beethoven

#endif // BEETHOVEN_TRACE_STALL_H
