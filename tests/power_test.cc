/**
 * @file
 * Power/energy telemetry tests (DESIGN.md §4f): exact component-to-SoC
 * energy conservation, the zero-activity static floor against the
 * resource-based PowerModel, per-SLR aggregation against the
 * floorplan placement, the beethoven-power-1 schema round-trip, the
 * planted-leak oracle, and the non-interference guarantee (a metered
 * run's stats digest is bit-identical to an unmetered one).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "accel/vecadd.h"
#include "base/json.h"
#include "base/log.h"
#include "base/rng.h"
#include "core/soc.h"
#include "platform/aws_f1.h"
#include "platform/sim_platform.h"
#include "power/power.h"
#include "power/power_json.h"
#include "runtime/fpga_handle.h"
#include "trace/trace.h"

namespace beethoven
{
namespace
{

/**
 * Run the canonical two-core vecadd workload on @p soc, then let it
 * idle for @p idle_cycles while the runtime is still attached.
 */
void
runVecAdd(AcceleratorSoc &soc, u64 seed, Cycle idle_cycles = 0)
{
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    Rng rng(seed);
    const unsigned n = 128;
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
    soc.sim().run(idle_cycles);
}

double
componentSum(const PowerLedger &ledger, Cycle cycle)
{
    double j = 0.0;
    for (std::size_t i = 0; i < ledger.numComponents(); ++i)
        j += ledger.componentJoules(i, cycle);
    return j;
}

// ---- conservation --------------------------------------------------

TEST(PowerLedger, ComponentEnergiesSumExactlyToSocTotal)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(2)),
                       platform);
    runVecAdd(soc, 0xC0FFEE);
    const Cycle end = soc.sim().cycle();
    ASSERT_GT(end, 0u);
    PowerLedger &ledger = soc.power();
    ASSERT_GT(ledger.numComponents(), 0u);

    // Bit-exact, not approximate: totalJoules is defined as the
    // ordered sum of the component energies.
    EXPECT_EQ(ledger.totalJoules(end), componentSum(ledger, end));
    EXPECT_EQ(ledger.totalJoules(end / 2), componentSum(ledger, end / 2));
    EXPECT_EQ(ledger.totalJoules(0), componentSum(ledger, 0));

    // The run did real work, so dynamic energy exceeds the floor.
    EXPECT_GT(ledger.totalJoules(end),
              ledger.staticWatts() * ledger.seconds(end));
}

TEST(PowerLedger, ZeroActivityEqualsStaticFloor)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(2)),
                       platform);
    const PowerLedger &ledger = soc.power();

    // Before anything ticks there is no energy at all.
    EXPECT_EQ(ledger.totalJoules(0), 0.0);

    // The static floor reproduces the resource-based estimate every
    // bench prints: watts(totalUsed + totalShell). The tolerance only
    // absorbs floating-point summation order.
    const double floor_watts = ledger.staticWatts();
    const double model_watts = platform.powerModel().watts(
        soc.floorplan().totalUsed() + soc.floorplan().totalShell());
    EXPECT_NEAR(floor_watts, model_watts, 1e-9 * model_watts);
}

TEST(PowerLedger, PlantedLeakTripsConservationInvariant)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(1)),
                       platform);
    PowerLedger &ledger = soc.power();
    EnergyConservationInvariant inv(ledger);
    soc.sim().run(300);
    EXPECT_NO_THROW(inv.check(soc.sim().cycle()));

    ledger.plantEnergyLeak(0.5);
    EXPECT_EQ(ledger.plantedLeakJoules(), 0.5);
    EXPECT_THROW(inv.check(soc.sim().cycle()), ConfigError);
}

// ---- per-SLR aggregation -------------------------------------------

TEST(PowerLedger, PerSlrAggregationMatchesFloorplanPlacement)
{
    // F1 has three SLRs; eight cores spread across them.
    AwsF1Platform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(8)),
                       platform);
    const PowerLedger &ledger = soc.power();
    const auto &placed = soc.floorplan().placedCores();
    ASSERT_EQ(placed.size(), 8u);

    // The first 8 ledger components are the cores, in placement order;
    // each carries the SLR the floorplanner chose for it. The ledger
    // names cores "Sys.coreN" where the floorplan uses "Sys_coreN".
    for (std::size_t i = 0; i < placed.size(); ++i) {
        std::string name = ledger.component(i).name;
        for (char &ch : name)
            if (ch == '.')
                ch = '_';
        EXPECT_EQ(name, placed[i].name);
        EXPECT_EQ(ledger.component(i).slr, placed[i].slr);
    }

    // A recorded run's per-SLR watts are exactly the per-component
    // watts regrouped by SLR.
    soc.sim().run(4096);
    PowerMeter meter;
    soc.sim().attachPowerMeter(&meter);
    meter.recordRun(soc.sim(), "slr-agg");
    ASSERT_EQ(meter.runs().size(), 1u);
    const PowerRunRecord &run = meter.runs()[0];
    ASSERT_EQ(run.slrWatts.size(), 3u);
    std::vector<double> expect(run.slrWatts.size(), 0.0);
    for (const PowerComponentRecord &c : run.components) {
        ASSERT_LT(c.slr, expect.size());
        expect[c.slr] += c.avgWatts;
    }
    for (std::size_t s = 0; s < expect.size(); ++s)
        EXPECT_EQ(run.slrWatts[s], expect[s]) << "slr " << s;
    // Multi-die placement really happened: more than one SLR draws
    // core power.
    unsigned populated = 0;
    for (double w : expect)
        populated += w > 0.0 ? 1 : 0;
    EXPECT_GT(populated, 1u);
}

// ---- windowed sampling ---------------------------------------------

TEST(PowerMeter, EmitsWindowedCounterTracks)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(1)),
                       platform);
    TraceSink sink;
    PowerMeter meter;
    soc.sim().attachTrace(&sink);
    soc.sim().attachPowerMeter(&meter);
    soc.sim().run(3 * Simulator::kSampleWindow + 100);
    // The window boundaries at cycles 1024, 2048 and 3072 each put
    // (components + soc total) power tracks into the simulator's sink,
    // next to its stall and NoC counters.
    std::ostringstream os;
    sink.writeChromeTrace(os);
    const JsonValue root = parseJson(os.str());
    std::size_t power_events = 0;
    for (const JsonValue &e : root.find("traceEvents")->array) {
        const JsonValue *cat = e.find("cat");
        power_events += cat != nullptr && cat->string == "power" ? 1 : 0;
    }
    const std::size_t per_window = soc.power().numComponents() + 1;
    EXPECT_EQ(power_events, 3 * per_window);
}

TEST(PowerMeter, RunRecordCoversEveryCycle)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(2)),
                       platform);
    PowerMeter meter;
    soc.sim().attachPowerMeter(&meter);
    // Idle past a window boundary: the meter first sees the ledger
    // when it samples at cycle 1024, after the vecadd work is done.
    runVecAdd(soc, 0xC1C1E, Simulator::kSampleWindow);
    meter.recordRun(soc.sim(), "vecadd");
    ASSERT_EQ(meter.runs().size(), 1u);
    // The record still opens at cycle 0, like the stats tree's
    // "cycles", and so holds all of the ledger's energy.
    const Cycle end = soc.sim().cycle();
    EXPECT_EQ(meter.runs()[0].cycles, static_cast<double>(end));
    EXPECT_EQ(meter.runs()[0].joules, soc.power().totalJoules(end));
}

TEST(PowerMeter, RecordRunCapturesEnergyPerOp)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(2)),
                       platform);
    PowerMeter meter;
    soc.sim().attachPowerMeter(&meter);
    runVecAdd(soc, 0xBEEF);
    meter.recordRun(soc.sim(), "vecadd", /*ops=*/256.0);
    meter.addReference("ref", 320.0, 5.0e6);

    const PowerRunRecord *run = meter.report().find("vecadd");
    ASSERT_NE(run, nullptr);
    EXPECT_GT(run->joules, 0.0);
    EXPECT_GT(run->avgWatts, 0.0);
    EXPECT_GE(run->peakWatts, run->avgWatts);
    EXPECT_EQ(run->energyPerOpUj(), run->joules / 256.0 * 1e6);

    const PowerRunRecord *ref = meter.report().find("ref");
    ASSERT_NE(ref, nullptr);
    EXPECT_TRUE(ref->reference);
    EXPECT_EQ(ref->energyPerOpUj(), 320.0 / 5.0e6 * 1e6);
}

// ---- schema round-trip ---------------------------------------------

TEST(PowerJson, SchemaRoundTripIsExact)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(2)),
                       platform);
    PowerMeter meter;
    soc.sim().attachPowerMeter(&meter);
    runVecAdd(soc, 0xF00D);
    meter.recordRun(soc.sim(), "rt", /*ops=*/256.0);
    meter.addReference("GPU (paper)", 320.0, 5.0e6);

    // A window other than the parser's default proves it round-trips.
    PowerReport orig = meter.report();
    orig.windowCycles = 512.0;
    std::ostringstream os;
    writePowerReportJson(os, orig);
    const PowerReport parsed = parsePowerReport(parseJson(os.str()));

    EXPECT_EQ(parsed.windowCycles, 512.0);
    ASSERT_EQ(parsed.runs.size(), orig.runs.size());
    for (std::size_t i = 0; i < orig.runs.size(); ++i) {
        const PowerRunRecord &a = orig.runs[i];
        const PowerRunRecord &b = parsed.runs[i];
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.reference, b.reference);
        EXPECT_EQ(a.clockMhz, b.clockMhz);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.joules, b.joules);
        EXPECT_EQ(a.avgWatts, b.avgWatts);
        EXPECT_EQ(a.peakWatts, b.peakWatts);
        EXPECT_EQ(a.staticWatts, b.staticWatts);
        EXPECT_EQ(a.ops, b.ops);
        EXPECT_EQ(a.opsPerSec, b.opsPerSec);
        ASSERT_EQ(a.slrWatts.size(), b.slrWatts.size());
        for (std::size_t s = 0; s < a.slrWatts.size(); ++s)
            EXPECT_EQ(a.slrWatts[s], b.slrWatts[s]);
        ASSERT_EQ(a.components.size(), b.components.size());
        for (std::size_t c = 0; c < a.components.size(); ++c) {
            EXPECT_EQ(a.components[c].name, b.components[c].name);
            EXPECT_EQ(a.components[c].slr, b.components[c].slr);
            EXPECT_EQ(a.components[c].joules, b.components[c].joules);
            EXPECT_EQ(a.components[c].avgWatts,
                      b.components[c].avgWatts);
            EXPECT_EQ(a.components[c].peakWatts,
                      b.components[c].peakWatts);
        }
    }
}

TEST(PowerJson, ParserRejectsWrongSchema)
{
    EXPECT_THROW(parsePowerReport(parseJson("{\"schema\":\"bogus\"}")),
                 ConfigError);
    EXPECT_THROW(parsePowerReport(parseJson("{}")), ConfigError);
    EXPECT_THROW(parsePowerReport(parseJson("[1,2]")), ConfigError);
}

// ---- non-interference ----------------------------------------------

/** Stats-tree JSON + final cycle, with or without a metered run. */
std::string
vecAddStatsDigest(u64 seed, bool with_meter)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(VecAddCore::systemConfig(2)),
                       platform);
    TraceSink power_sink;
    PowerMeter meter;
    if (with_meter) {
        soc.sim().attachTrace(&power_sink);
        soc.sim().attachPowerMeter(&meter);
    }
    // Idle on past two window boundaries so the meter samples.
    runVecAdd(soc, seed, 2 * Simulator::kSampleWindow);
    if (with_meter) {
        meter.recordRun(soc.sim(), "digest", 256.0);
        // The meter really sampled the run.
        EXPECT_TRUE(power_sink.hasCategory("power"));
    }
    soc.sim().publishStallStats();
    std::ostringstream os;
    soc.sim().stats().dumpJson(os);
    os << "@" << soc.sim().cycle();
    return os.str();
}

TEST(PowerMeter, MeteredRunIsBitIdenticalToUnmetered)
{
    const std::string plain = vecAddStatsDigest(0xD5EED, false);
    const std::string metered = vecAddStatsDigest(0xD5EED, true);
    EXPECT_FALSE(plain.empty());
    EXPECT_EQ(plain, metered);
}

} // namespace
} // namespace beethoven
