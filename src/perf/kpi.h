/**
 * @file
 * Run-level host KPIs: wall time, simulated cycles (and module ticks)
 * per second, peak RSS, and allocation churn.
 *
 * These complement the HostProfiler's per-component breakdown: the
 * profiler says *where* host time goes, the KPIs say *how fast* the
 * whole process converted wall-clock into simulated cycles. bench_cli
 * serializes them into --perf-json output (schema "beethoven-perf-2"),
 * a one-off diagnostic for a single run; perfbench/ reads the peak RSS
 * and allocation counters for the repository benchmark.
 */

#ifndef BEETHOVEN_PERF_KPI_H
#define BEETHOVEN_PERF_KPI_H

#include <ostream>
#include <string>

#include "base/types.h"

namespace beethoven
{

class HostProfiler;

/**
 * Process-wide allocation counters, maintained by the global operator
 * new/delete overrides in alloc_counter.cc. The overrides are linked
 * into a binary only when something in it references this function
 * (the usual static-archive pull-in rule), so binaries that never ask
 * for KPIs keep the toolchain's default allocator entry points.
 */
struct AllocCounters
{
    u64 allocs = 0; ///< operator new calls
    u64 frees = 0;  ///< operator delete calls (non-null)
    u64 bytes = 0;  ///< bytes requested through operator new
};

AllocCounters allocCounters();

/**
 * Peak resident set size in KiB: VmHWM from /proc/self/status where
 * available, otherwise getrusage(RUSAGE_SELF) ru_maxrss. 0 if neither
 * source exists.
 */
u64 peakRssKb();

/**
 * Write one "beethoven-perf-2" JSON object: run-level KPIs plus, when
 * a profiler was attached, its host-time breakdown ("host_profile").
 *
 * @param bench    bench name (argv[0] basename)
 * @param quick    whether the run was a --quick run
 * @param wall_ns  process wall time covered by the KPIs
 * @param cycles   simulated cycles stepped (globalSimCycles())
 * @param ticks    module ticks executed (globalModuleTicks())
 * @param prof     attached profiler, or nullptr
 */
void writePerfJson(std::ostream &os, const std::string &bench,
                   bool quick, u64 wall_ns, u64 cycles, u64 ticks,
                   const HostProfiler *prof);

} // namespace beethoven

#endif // BEETHOVEN_PERF_KPI_H
