/**
 * @file
 * Host-performance observability tests (DESIGN.md 4e): profiler
 * conservation and sampling accuracy, the non-interference guarantee
 * (profiled runs are bit-identical to unprofiled ones and, under the
 * event kernel, tick exactly the modules an unprofiled run ticks), and
 * run-level KPI sources.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "accel/vecadd.h"
#include "base/json.h"
#include "base/rng.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "perf/kpi.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"
#include "sim/module.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace beethoven
{
namespace
{

/** A module that burns a calibrated amount of host time per tick. */
class SpinModule : public Module
{
  public:
    SpinModule(Simulator &sim, std::string name, unsigned spins)
        : Module(sim, std::move(name)), _spins(spins)
    {
        // Module's constructor registered us with the simulator.
    }

    void tick() override
    {
        // Data-dependent loop the optimizer can't delete; the volatile
        // sink keeps the host-time cost roughly proportional to _spins.
        volatile u64 acc = 0;
        for (unsigned i = 0; i < _spins; ++i)
            acc = acc + i;
        _sink = acc;
    }

    u64 result() const { return _sink; }

  private:
    unsigned _spins;
    u64 _sink = 0;
};

// ---- profiler: conservation & attribution --------------------------

TEST(HostProfiler, ScopedComponentTimesSumToAtMostTotal)
{
    Simulator sim;
    SpinModule heavy(sim, "heavy", 4000);
    SpinModule light(sim, "light", 100);
    HostProfiler prof(1);
    sim.attachHostProfiler(&prof);

    for (int i = 0; i < 2000; ++i)
        sim.step();

    // Every cycle was measured, per-component slices are disjoint
    // sub-intervals of the step-loop total, so the sum is conserved.
    ASSERT_EQ(prof.sampledCycles(), 2000u);
    EXPECT_EQ(prof.seenCycles(), 2000u);
    u64 sum = 0;
    for (const auto &c : prof.components())
        sum += c.ns;
    EXPECT_LE(sum, prof.totalNs());
    EXPECT_GT(prof.totalNs(), 0u);

    // The heavy module must dominate the breakdown.
    const auto top = prof.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].name, "heavy");
    EXPECT_GT(prof.share(top[0]), 0.5);
}

TEST(HostProfiler, SamplingAgreesWithScopedShares)
{
    // Same two-module workload measured at period 1 and period 8; the
    // sampled share estimate must land near the exhaustive one.
    // Tolerance is generous (15 points) because a 1-in-8 sample of 4000
    // cycles is noisy under CI scheduling.
    auto measure = [](u32 period) {
        Simulator sim;
        SpinModule heavy(sim, "heavy", 4000);
        SpinModule light(sim, "light", 400);
        HostProfiler prof(period);
        sim.attachHostProfiler(&prof);
        for (int i = 0; i < 4000; ++i)
            sim.step();
        for (const auto &c : prof.components())
            if (c.name == "heavy")
                return prof.share(c);
        return 0.0;
    };

    // The two passes are timed back to back, so a scheduler preemption
    // landing in just one of them skews the comparison. Retry a few
    // times and require one clean agreement instead of widening the
    // tolerance until the assertion is vacuous.
    double scoped = 0.0, sampled = 0.0;
    for (int attempt = 0; attempt < 5; ++attempt) {
        scoped = measure(1);
        sampled = measure(8);
        if (scoped > 0.5 && std::abs(sampled - scoped) <= 0.15)
            break;
    }
    EXPECT_GT(scoped, 0.5);
    EXPECT_GT(sampled, 0.0);
    EXPECT_NEAR(sampled, scoped, 0.15);
}

TEST(HostProfiler, SamplingMeasuresOneInPeriodCycles)
{
    Simulator sim;
    SpinModule m(sim, "m", 10);
    HostProfiler prof(64);
    sim.attachHostProfiler(&prof);
    for (int i = 0; i < 6400; ++i)
        sim.step();
    EXPECT_EQ(prof.seenCycles(), 6400u);
    EXPECT_EQ(prof.sampledCycles(), 6400u / 64);
}

TEST(HostProfiler, ComponentsAccumulateAcrossAttachments)
{
    // Benches build one SoC per configuration but reuse the profiler;
    // same-named components must merge rather than duplicate.
    HostProfiler prof(1);
    for (int round = 0; round < 2; ++round) {
        Simulator sim;
        SpinModule m(sim, "ddr", 100);
        sim.attachHostProfiler(&prof);
        for (int i = 0; i < 100; ++i)
            sim.step();
    }
    unsigned ddr_count = 0;
    for (const auto &c : prof.components())
        if (c.name == "ddr")
            ++ddr_count;
    EXPECT_EQ(ddr_count, 1u);
    EXPECT_EQ(prof.seenCycles(), 200u);
}

// ---- non-interference ----------------------------------------------

/** What a vecadd run leaves behind for comparison. */
struct VecAddRun
{
    /** Full stats-tree JSON plus the final cycle count. */
    std::string digest;
    /** Module ticks the run executed (globalModuleTicks() delta). */
    u64 moduleTicks = 0;
    /** The run's scheduled wakes (Simulator::scheduledWakes()). */
    u64 wakes = 0;
};

/**
 * Canonical vecadd workload under @p kernel (same shape as
 * determinism_test.cc), @p n elements per core. When @p prof is
 * non-null the run is profiled. When @p sink is non-null the run is
 * traced and then stepped to the end of its sampling window, so every
 * tick and wake lands in a sampled window.
 */
VecAddRun
vecAddRun(u64 seed, SimKernel kernel, HostProfiler *prof,
          TraceSink *sink = nullptr, unsigned n = 128)
{
    const u64 ticks_before = globalModuleTicks();
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(2));
    AcceleratorSoc soc(std::move(cfg), platform);
    soc.sim().setKernel(kernel);
    if (prof != nullptr)
        soc.sim().attachHostProfiler(prof);
    if (sink != nullptr)
        soc.sim().attachTrace(sink);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    Rng rng(seed);
    std::vector<remote_ptr> bufs;
    for (unsigned c = 0; c < 2; ++c) {
        remote_ptr mem = handle.malloc(n * sizeof(u32));
        auto *vals = mem.as<u32>();
        for (unsigned i = 0; i < n; ++i)
            vals[i] = static_cast<u32>(rng.next());
        handle.copy_to_fpga(mem);
        bufs.push_back(mem);
    }
    std::vector<response_handle<u64>> handles;
    for (unsigned c = 0; c < 2; ++c) {
        handles.push_back(handle.invoke(
            "MyAcceleratorSystem", "my_accel", c,
            {seed & 0xFFFF, bufs[c].getFpgaAddr(), n}));
    }
    for (auto &h : handles)
        h.get();
    Simulator &sim = soc.sim();
    if (sink != nullptr) {
        const Cycle w = Simulator::kSampleWindow;
        sim.run(w - sim.cycle() % w);
    }

    sim.publishStallStats();
    std::ostringstream os;
    sim.stats().dumpJson(os);
    os << "@" << sim.cycle();
    return {os.str(), globalModuleTicks() - ticks_before,
            sim.scheduledWakes()};
}

TEST(HostProfiler, ProfiledRunIsBitIdenticalToUnprofiled)
{
    const VecAddRun plain = vecAddRun(0xD5EED, SimKernel::Tick, nullptr);
    HostProfiler scoped(1);
    const VecAddRun profiled =
        vecAddRun(0xD5EED, SimKernel::Tick, &scoped);
    EXPECT_EQ(plain.digest, profiled.digest);
    EXPECT_FALSE(plain.digest.empty());
    // And the profiler really ran: it saw every simulated cycle.
    EXPECT_GT(scoped.sampledCycles(), 0u);
    EXPECT_GT(scoped.totalNs(), 0u);
}

TEST(HostProfiler, ProfiledEventRunTicksOnlyAwakeModules)
{
    // The profile must describe the kernel that runs: a measured
    // event-kernel cycle ticks exactly the awake modules, so profiling
    // changes neither the digest nor the number of ticks, and a module
    // that sleeps records fewer intervals than there were measured
    // cycles.
    const VecAddRun plain = vecAddRun(0xD5EED, SimKernel::Event, nullptr);
    HostProfiler scoped(1);
    const VecAddRun profiled =
        vecAddRun(0xD5EED, SimKernel::Event, &scoped);
    EXPECT_EQ(plain.digest, profiled.digest);
    EXPECT_EQ(plain.moduleTicks, profiled.moduleTicks);

    // Period 1 times every tick the kernel runs: one interval each,
    // and every component is a module.
    u64 module_calls = 0;
    const HostProfiler::Component *ddr = nullptr;
    for (const auto &c : scoped.components()) {
        module_calls += c.calls;
        if (c.name == "ddr")
            ddr = &c;
    }
    EXPECT_EQ(module_calls, profiled.moduleTicks);

    // The DRAM controller idles between vecadd's bursts and sleeps.
    ASSERT_NE(ddr, nullptr);
    EXPECT_GT(ddr->calls, 0u);
    EXPECT_LT(ddr->calls, scoped.sampledCycles());
}

TEST(HostProfiler, EventRunModuleTicksStayBounded)
{
    // Module ticks do not depend on host speed, so ctest can gate
    // them: a module that stops sleeping raises the count. Measured
    // 1210; with cores that ticked while idle the run took 1380, and
    // with a host interface that also ticked on every cycle 1586.
    const VecAddRun run = vecAddRun(0xD5EED, SimKernel::Event, nullptr);
    EXPECT_LE(run.moduleTicks, 1210u);
}

TEST(SimCounters, WindowsSumToRunTicksAndWakes)
{
    // The "sim" window counters split the run's module ticks and
    // scheduled wakes into windows; over full windows they add up. The
    // vectors are long enough for the run to span several windows.
    TraceSink sink;
    const VecAddRun run =
        vecAddRun(0xD5EED, SimKernel::Event, nullptr, &sink, 4096);
    std::ostringstream os;
    sink.writeChromeTrace(os);
    const JsonValue root = parseJson(os.str());
    double ticks = 0.0, wakes = 0.0;
    unsigned tick_samples = 0;
    for (const JsonValue &e : root.find("traceEvents")->array) {
        const JsonValue *ph = e.find("ph");
        if (ph == nullptr || ph->string != "C")
            continue;
        const std::string &name = e.find("name")->string;
        const double v = e.find("args")->find("value")->number;
        if (name == "sim/ticks") {
            ticks += v;
            ++tick_samples;
        } else if (name == "sim/wakes") {
            wakes += v;
        }
    }
    EXPECT_GE(tick_samples, 3u);
    EXPECT_EQ(ticks, static_cast<double>(run.moduleTicks));
    EXPECT_EQ(wakes, static_cast<double>(run.wakes));
    EXPECT_GT(run.wakes, 0u);
}

// ---- run-level KPI sources -----------------------------------------

TEST(Kpi, PeakRssIsPositive)
{
    // VmHWM (or the getrusage fallback) must report something for a
    // live process.
    EXPECT_GT(peakRssKb(), 0u);
}

TEST(Kpi, AllocCountersTrackHeapChurn)
{
    const AllocCounters before = allocCounters();
    {
        std::vector<std::string> v;
        for (int i = 0; i < 256; ++i)
            v.emplace_back(128, 'x');
    }
    const AllocCounters after = allocCounters();
    EXPECT_GT(after.allocs, before.allocs);
    EXPECT_GT(after.frees, before.frees);
    EXPECT_GT(after.bytes, before.bytes);
}

TEST(Kpi, HostClockIsMonotonic)
{
    const u64 a = hostNowNs();
    const u64 b = hostNowNs();
    EXPECT_LE(a, b);
}

TEST(Kpi, PerfJsonIsParseableAndCarriesKpis)
{
    HostProfiler prof(1);
    Simulator sim;
    SpinModule m(sim, "m", 50);
    sim.attachHostProfiler(&prof);
    for (int i = 0; i < 100; ++i)
        sim.step();

    std::ostringstream os;
    writePerfJson(os, "unit_bench", true, 1000000, 100, 100, &prof);
    const JsonValue v = parseJson(os.str());
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.find("schema"), nullptr);
    EXPECT_EQ(v.find("schema")->string, "beethoven-perf-2");
    EXPECT_EQ(v.find("bench")->string, "unit_bench");
    EXPECT_DOUBLE_EQ(v.find("sim_cycles")->number, 100.0);
    EXPECT_GT(v.find("cycles_per_sec")->number, 0.0);
    ASSERT_NE(v.find("host_profile"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("host_profile")->find("period")->number, 1.0);

    // Without a profiler (--perf-json alone) the KPIs stand alone.
    std::ostringstream bare;
    writePerfJson(bare, "unit_bench", true, 1000000, 100, 100, nullptr);
    const JsonValue b = parseJson(bare.str());
    EXPECT_GT(b.find("cycles_per_sec")->number, 0.0);
    EXPECT_EQ(b.find("host_profile"), nullptr);
}

// ---- global KPI counters -------------------------------------------

TEST(Kpi, GlobalCycleCountersAdvanceWithSteps)
{
    const u64 cycles_before = globalSimCycles();
    const u64 ticks_before = globalModuleTicks();
    Simulator sim;
    SpinModule a(sim, "a", 1);
    SpinModule b(sim, "b", 1);
    for (int i = 0; i < 50; ++i)
        sim.step();
    EXPECT_EQ(globalSimCycles() - cycles_before, 50u);
    EXPECT_EQ(globalModuleTicks() - ticks_before, 100u);
}

} // namespace
} // namespace beethoven
