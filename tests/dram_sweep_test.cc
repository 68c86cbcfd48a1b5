/**
 * @file
 * Parameterized property sweeps over the DRAM controller: data
 * integrity and AXI legality must hold across timing presets,
 * geometries, scheduler windows, and watermark settings.
 */

#include <gtest/gtest.h>

#include "base/rng.h"
#include "dram/controller.h"

namespace beethoven
{
namespace
{

struct SweepParam
{
    const char *name;
    DramController::Config cfg;
};

SweepParam
makeParam(const char *name,
          std::function<void(DramController::Config &)> tweak)
{
    SweepParam p;
    p.name = name;
    p.cfg.axi.dataBytes = 64;
    tweak(p.cfg);
    return p;
}

// gtest lists each case as "<name>  # GetParam() = <printed param>",
// and ctest names the case after that line. Without a printer gtest
// dumps the struct's raw bytes, which begin with the name pointer, so
// the case name would change with every build and every process.
void
PrintTo(const SweepParam &p, std::ostream *os)
{
    *os << p.name;
}

class DramSweep : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(DramSweep, RandomTrafficIntegrityAndLegality)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController ctrl(sim, "ddr", GetParam().cfg, mem);
    ctrl.timeline().setEnabled(true);
    const unsigned bus = ctrl.config().axi.dataBytes;

    Rng rng(0xBEE7 + bus);
    // Shadow model of expected memory contents.
    FunctionalMemory shadow;

    // Mixed random reads/writes, checked against the shadow.
    for (int iter = 0; iter < 30; ++iter) {
        const Addr addr = rng.nextBounded(64) * 4096;
        const u32 beats = 1 + static_cast<u32>(rng.nextBounded(8));
        const u32 id = static_cast<u32>(rng.nextBounded(4));
        if (rng.nextBounded(2) == 0) {
            // Write a random burst, mirror into the shadow.
            std::vector<u8> data(beats * bus);
            for (auto &b : data)
                b = static_cast<u8>(rng.next());
            shadow.write(addr, data.size(), data.data());
            const u64 tag = nextGlobalTag();
            for (u32 b = 0; b < beats; ++b) {
                WriteFlit flit;
                if (b == 0) {
                    flit.hasHeader = true;
                    flit.header = {id, addr, beats, tag};
                }
                flit.beat.data.assign(data.begin() + b * bus,
                                      data.begin() + (b + 1) * bus);
                flit.beat.last = b + 1 == beats;
                while (!ctrl.wPort().canPush())
                    sim.step();
                ctrl.wPort().push(std::move(flit));
                sim.step();
            }
            const Cycle start = sim.cycle();
            while (!ctrl.bPort().canPop()) {
                sim.step();
                ASSERT_LT(sim.cycle() - start, 200000u);
            }
            ctrl.bPort().pop();
        } else {
            ReadRequest req{id, addr, beats, nextGlobalTag()};
            while (!ctrl.arPort().canPush())
                sim.step();
            ctrl.arPort().push(req);
            std::vector<u8> got;
            const Cycle start = sim.cycle();
            while (got.size() < u64(beats) * bus) {
                if (ctrl.rPort().canPop()) {
                    const ReadBeat beat = ctrl.rPort().pop();
                    got.insert(got.end(), beat.data.begin(),
                               beat.data.end());
                } else {
                    sim.step();
                    ASSERT_LT(sim.cycle() - start, 200000u);
                }
            }
            std::vector<u8> expected(got.size());
            shadow.read(addr, expected.size(), expected.data());
            ASSERT_EQ(got, expected)
                << GetParam().name << " iter " << iter;
        }
    }
    EXPECT_EQ(checkAxiProtocol(ctrl.timeline().events()), "")
        << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DramSweep,
    ::testing::Values(
        makeParam("default", [](auto &) {}),
        makeParam("lpddr",
                  [](auto &c) {
                      c.timing = DramTiming::lpddr4_embedded();
                  }),
        makeParam("tinyWindow",
                  [](auto &c) { c.schedulerWindow = 1; }),
        makeParam("hugeWindow",
                  [](auto &c) { c.schedulerWindow = 64; }),
        makeParam("eagerWrites",
                  [](auto &c) { c.writeDrainHighWatermark = 1; }),
        makeParam("lazyWrites",
                  [](auto &c) { c.writeDrainHighWatermark = 512; }),
        makeParam("noRecycle",
                  [](auto &c) { c.sameIdRecycleCycles = 0; }),
        makeParam("frequentRefresh",
                  [](auto &c) {
                      c.timing.tREFI = 200;
                      c.timing.tRFC = 50;
                  }),
        makeParam("smallGeometry",
                  [](auto &c) {
                      c.geometry.nBankGroups = 1;
                      c.geometry.banksPerGroup = 2;
                      c.geometry.rowBytesPerBank = 1024;
                  }),
        makeParam("fewOutstanding",
                  [](auto &c) {
                      c.maxOutstandingReads = 2;
                      c.maxOutstandingWrites = 2;
                  })),
    [](const auto &info) { return std::string(info.param.name); });

TEST(DramRefresh, PeriodicRefreshHappens)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.timing.tREFI = 100;
    cfg.timing.tRFC = 20;
    DramController ctrl(sim, "ddr", cfg, mem);
    sim.run(1000);
    const StatScalar *refreshes =
        sim.stats().findScalar("ddr.refreshes");
    ASSERT_NE(refreshes, nullptr);
    EXPECT_GE(refreshes->value(), 9.0);
    EXPECT_LE(refreshes->value(), 11.0);
}

TEST(DramRefresh, ThroughputTaxMatchesDutyCycle)
{
    // Streaming bandwidth with and without refresh should differ by
    // roughly tRFC/tREFI.
    auto stream_cycles = [](unsigned trefi, unsigned trfc) {
        Simulator sim;
        FunctionalMemory mem;
        DramController::Config cfg;
        cfg.timing.tREFI = trefi;
        cfg.timing.tRFC = trfc;
        DramController ctrl(sim, "ddr", cfg, mem);
        // 256 sequential 16-beat reads on rotating IDs.
        unsigned issued = 0, retired = 0;
        while (retired < 256) {
            if (issued < 256 && ctrl.arPort().canPush()) {
                ReadRequest req;
                req.id = issued % 8;
                req.addr = Addr(issued) * 1024;
                req.beats = 16;
                req.tag = nextGlobalTag();
                ctrl.arPort().push(req);
                ++issued;
            }
            if (ctrl.rPort().canPop()) {
                if (ctrl.rPort().pop().last)
                    ++retired;
            }
            sim.step();
        }
        return sim.cycle();
    };
    const Cycle without = stream_cycles(1000000, 1);
    const Cycle with = stream_cycles(1950, 88);
    const double tax = double(with) / double(without) - 1.0;
    EXPECT_GT(tax, 0.02);
    EXPECT_LT(tax, 0.12);
}

} // namespace
} // namespace beethoven
