/**
 * @file
 * Host-time attribution for the simulator's own hot path.
 *
 * The existing observability stack (src/trace/) explains where
 * *simulated* cycles go; the HostProfiler explains where *wall-clock*
 * goes while the simulator produces those cycles.
 *
 * Attach a profiler to a Simulator (Simulator::attachHostProfiler) and
 * every step is accounted against named components: one component per
 * registered module, plus a builtin "(commit)" bucket for the
 * end-of-cycle commit phase. Attribution happens with a chain of
 * monotonic clock reads (one per tick the kernel runs on a measured
 * cycle), so per-component times are disjoint sub-intervals of the
 * measured step-loop total and always sum to <= it. The profile
 * describes the kernel that ran: under the event kernel a sleeping
 * module is not ticked and records no interval for that cycle.
 *
 * One cycle in every `period` is timed (default 64, what
 * --host-profile uses): the measured shares estimate the true
 * breakdown at ~1/period of the cost of timing every cycle, keeping
 * overhead well under the 5% budget (DESIGN.md 4e). Period 1 times
 * every cycle; the conservation tests use it.
 *
 * A profiler may be attached to many Simulators sequentially (benches
 * construct one SoC per configuration); components with equal names
 * accumulate across attachments, so "ddr" means all DRAM controllers
 * the process ticked.
 *
 * The profiler never mutates simulation state; tests/perf_test.cc
 * proves a profiled run's stats digest is bit-identical to an
 * unprofiled one.
 */

#ifndef BEETHOVEN_PERF_HOST_PROFILER_H
#define BEETHOVEN_PERF_HOST_PROFILER_H

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.h"

namespace beethoven
{

class TraceSink;

class HostProfiler
{
  public:
    /** @param period cycles per measured cycle (clamped to >= 1) */
    explicit HostProfiler(u32 period = 64);

    /** Get-or-create the component named @p name. */
    u32 componentId(const std::string &name);

    /** Builtin bucket for the commit phase. */
    u32 commitComponentId() const { return _commitId; }

    // ---- hot path (called by Simulator::step) ----------------------

    /**
     * Account one elapsed cycle and decide whether its phases should
     * be individually timed.
     * @return true if the caller should time this cycle.
     */
    bool onCycle();

    /** Attribute @p ns of host time to component @p id. */
    void add(u32 id, u64 ns)
    {
        _components[id].ns += ns;
        ++_components[id].calls;
    }

    /** Account @p ns of measured step-loop time (all components). */
    void addTotal(u64 ns)
    {
        _totalNs += ns;
        ++_sampledCycles;
    }

    /**
     * Emit one counter sample per component that measured time since
     * the last emission into @p sink (category "host", tracks named
     * "host/<component>", value = microseconds since the last
     * emission). The simulator calls it at every sampling window while
     * tracing, so Perfetto lines host time up under the simulated
     * timeline.
     */
    void emitCounters(TraceSink &sink, Cycle cycle);

    // ---- results ---------------------------------------------------

    struct Component
    {
        std::string name;
        u64 ns = 0;    ///< host time attributed (measured cycles only)
        u64 calls = 0; ///< number of measured intervals
    };

    /** Total measured step-loop time (ns) across sampled cycles. */
    u64 totalNs() const { return _totalNs; }

    /** Cycles that were individually timed. */
    u64 sampledCycles() const { return _sampledCycles; }

    /** Cycles seen (measured or not) across all attached simulators. */
    u64 seenCycles() const { return _cycles; }

    /** All components in registration order. */
    const std::vector<Component> &components() const
    {
        return _components;
    }

    /** The @p n components with the most attributed time, descending. */
    std::vector<Component> top(std::size_t n) const;

    /** Fraction of measured step-loop time in component @p c. */
    double share(const Component &c) const
    {
        return _totalNs ? static_cast<double>(c.ns) / _totalNs : 0.0;
    }

    /** Ranked per-component table, analogous to the stall report. */
    void writeReport(std::ostream &os, std::size_t top_n = 10) const;

    /** The "host_profile" JSON object embedded in --perf-json output. */
    void writeJson(std::ostream &os) const;

  private:
    u32 _period;
    u32 _sinceSample = 0;
    u64 _cycles = 0;
    u64 _sampledCycles = 0;
    u64 _totalNs = 0;
    u32 _commitId = 0;
    std::vector<Component> _components;
    std::map<std::string, u32> _byName;
    std::vector<u64> _emittedNs; ///< per-component ns at last emission
};

} // namespace beethoven

#endif // BEETHOVEN_PERF_HOST_PROFILER_H
