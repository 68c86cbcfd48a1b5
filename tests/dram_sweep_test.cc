/**
 * @file
 * Parameterized property sweeps over the DRAM controller: data
 * integrity and AXI legality must hold across timing presets,
 * geometries (2 to 64 banks), scheduler windows, and watermark
 * settings.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <numeric>
#include <sstream>

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
            const u64 tag = sim.nextTag();
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
            ReadRequest req{id, addr, beats, sim.nextTag()};
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

/** 64-bit FNV-1a of @p s. */
u64
fnv1a(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** What one config does under one concurrent traffic shape. */
struct ConcurrentPin
{
    Cycle cycles;  ///< cycle at which the last response came back
    u64 statsFnv;  ///< fnv1a of the stats tree's JSON at that cycle
};

/** Overlapping multi-ID reads and writes, driven from one seed. */
struct TrafficShape
{
    unsigned ids;            ///< AXI IDs drawn per burst
    unsigned maxOutstanding; ///< per direction
    unsigned txns;           ///< bursts per direction
    /** A W beat is offered on one cycle in wEvery (1: every cycle). */
    unsigned wEvery;
    /** The R port is left unpopped on one cycle in rSkipEvery (0:
     *  popped whenever it can be). */
    unsigned rSkipEvery;
};

/**
 * Drive @p shape through a controller built from the current param,
 * check data integrity and AXI legality, and report its fingerprint.
 * Reads see preloaded bytes and every write gets its own slot, so no
 * read races a write and every byte has one expected value. Pacing
 * draws come from their own generator, and a shape that does not pace
 * makes none, so pacing never shifts the traffic generator's draws.
 */
void
driveConcurrent(const SweepParam &param, const TrafficShape &shape,
                ConcurrentPin &out)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController ctrl(sim, "ddr", param.cfg, mem);
    ctrl.timeline().setEnabled(true);
    const unsigned bus = ctrl.config().axi.dataBytes;
    const unsigned n = shape.txns;
    constexpr u64 kSlotBeats = 64;
    const Addr slot = kSlotBeats * bus; // room for the longest burst
    const Addr write_base = 256 * slot; // reads stay below it

    Rng rng(0xC0C0);
    Rng pace(0x9ACE);
    std::vector<u8> init(write_base);
    for (auto &b : init)
        b = static_cast<u8>(rng.next());
    mem.write(0, init.size(), init.data());
    FunctionalMemory shadow;
    std::vector<u64> write_slots(n);
    std::iota(write_slots.begin(), write_slots.end(), 0);
    for (u64 i = n - 1; i > 0; --i)
        std::swap(write_slots[i], write_slots[rng.nextBounded(i + 1)]);

    // A 1-64 beat burst at a beat-aligned offset inside a slot.
    auto burst = [&](Addr slot_base) {
        const u32 beats = 1 + static_cast<u32>(rng.nextBounded(64));
        const Addr offset = rng.nextBounded(kSlotBeats - beats + 1) * bus;
        return std::make_pair(slot_base + offset, beats);
    };
    // True on one cycle in n: never for 0, always for 1 (no draw).
    auto one_in = [&pace](unsigned n) {
        return n != 0 && pace.nextBounded(n) == 0;
    };

    struct PendingRead
    {
        Addr addr;
        u32 beats;
        std::vector<u8> data;
    };
    std::map<u64, PendingRead> reads; // by tag
    std::deque<WriteFlit> w_flits;    // rest of the burst being sent
    unsigned reads_issued = 0, reads_done = 0;
    unsigned writes_issued = 0, writes_done = 0;
    while (reads_done < n || writes_done < n) {
        if (reads_issued < n &&
            reads_issued - reads_done < shape.maxOutstanding &&
            ctrl.arPort().canPush()) {
            const auto [addr, beats] = burst(rng.nextBounded(256) * slot);
            const ReadRequest req{
                static_cast<u32>(rng.nextBounded(shape.ids)), addr, beats,
                sim.nextTag()};
            reads[req.tag] = {addr, beats, {}};
            ctrl.arPort().push(req);
            ++reads_issued;
        }
        if (w_flits.empty() && writes_issued < n &&
            writes_issued - writes_done < shape.maxOutstanding) {
            const auto [addr, beats] =
                burst(write_base + write_slots[writes_issued] * slot);
            const WriteRequest header{
                static_cast<u32>(rng.nextBounded(shape.ids)), addr, beats,
                sim.nextTag()};
            for (u32 b = 0; b < beats; ++b) {
                WriteFlit flit;
                flit.hasHeader = b == 0;
                flit.header = header;
                std::vector<u8> data(bus);
                for (auto &byte : data)
                    byte = static_cast<u8>(rng.next());
                flit.beat.data.assign(data.begin(), data.end());
                // A quarter of the first beats are partial.
                if (b == 0 && rng.nextBounded(4) == 0) {
                    flit.beat.strb.resize(bus);
                    for (unsigned i = 0; i < bus; ++i)
                        flit.beat.strb[i] = rng.nextBounded(2) == 0;
                }
                flit.beat.last = b + 1 == beats;
                shadow.writeMasked(addr + Addr(b) * bus, data,
                                   flit.beat.strb);
                w_flits.push_back(std::move(flit));
            }
            ++writes_issued;
        }
        if (!w_flits.empty() && ctrl.wPort().canPush() &&
            one_in(shape.wEvery)) {
            ctrl.wPort().push(std::move(w_flits.front()));
            w_flits.pop_front();
        }
        if (ctrl.rPort().canPop() && !one_in(shape.rSkipEvery)) {
            const ReadBeat beat = ctrl.rPort().pop();
            PendingRead &r = reads.at(beat.tag);
            r.data.insert(r.data.end(), beat.data.begin(), beat.data.end());
            if (beat.last) {
                ASSERT_EQ(r.data.size(), u64(r.beats) * bus);
                ASSERT_TRUE(std::equal(r.data.begin(), r.data.end(),
                                       init.begin() + r.addr))
                    << param.name << " read at 0x" << std::hex << r.addr;
                reads.erase(beat.tag);
                ++reads_done;
            }
        }
        if (ctrl.bPort().canPop()) {
            ctrl.bPort().pop();
            ++writes_done;
        }
        sim.step();
        ASSERT_LT(sim.cycle(), 1000000u) << param.name << " hung";
    }

    std::vector<u8> written(n * slot), expected(n * slot);
    mem.read(write_base, written.size(), written.data());
    shadow.read(write_base, expected.size(), expected.data());
    EXPECT_TRUE(written == expected) << param.name;
    EXPECT_EQ(checkAxiProtocol(ctrl.timeline().events()), "") << param.name;

    sim.publishStallStats();
    std::ostringstream json;
    sim.stats().dumpJson(json);
    out = {sim.cycle(), fnv1a(json.str())};
}

void
expectPin(const SweepParam &param, const ConcurrentPin &got,
          const std::map<std::string, ConcurrentPin> &pins)
{
    const ConcurrentPin &pin = pins.at(param.name);
    EXPECT_EQ(got.cycles, pin.cycles) << param.name;
    EXPECT_EQ(got.statsFnv, pin.statsFnv)
        << param.name << " stats digest 0x" << std::hex << got.statsFnv;
}

// One burst waits for the last in RandomTrafficIntegrityAndLegality, so
// several knobs (window, watermarks, recycle, outstanding limits) never
// act there. Here every config sees the same overlapping multi-ID
// traffic, and its final cycle and stats digest are pinned, so any
// change to what the controller does under load shows up.
const std::map<std::string, ConcurrentPin> kConcurrentPins = {
    {"default", {14939, 0xf61ea4fc587e3784ULL}},
    {"lpddr", {19872, 0x5d6280dfc1713ed0ULL}},
    {"tinyWindow", {29739, 0xe270df8fe635f233ULL}},
    {"hugeWindow", {15795, 0xcc3e5ae706c8f2fdULL}},
    {"eagerWrites", {14913, 0x5e4b1cbf343bfbd3ULL}},
    {"lazyWrites", {15093, 0x106f95c7ec0c2b52ULL}},
    {"noRecycle", {14941, 0xbb384d566b4acad2ULL}},
    {"frequentRefresh", {19535, 0xb5a25bde533b2e1fULL}},
    {"smallGeometry", {19073, 0xd889e2d5300c5bd7ULL}},
    {"fewOutstanding", {17469, 0x6b35628fa9d3d923ULL}},
    {"kria", {16744, 0x875e4abd512bbd65ULL}},
    {"wideGeometry", {14790, 0x83e383fda09d3b1aULL}},
};

TEST_P(DramSweep, ConcurrentTrafficIntegrityLegalityAndPins)
{
    ConcurrentPin got{};
    driveConcurrent(GetParam(), {4, 16, 200, 1, 0}, got);
    if (!HasFatalFailure())
        expectPin(GetParam(), got, kConcurrentPins);
}

// A second shape: many IDs, deep queues, W beats that trickle in (so a
// head gains beats while the scheduler already sees it, and while its
// recycle gate is closed) and an R port that backs up.
const std::map<std::string, ConcurrentPin> kTrickledPins = {
    {"default", {28725, 0x8eb433e7016ca5b9ULL}},
    {"lpddr", {31362, 0xbe5fb91c96dc423bULL}},
    {"tinyWindow", {32065, 0xb6112271114af37dULL}},
    {"hugeWindow", {29049, 0x5c8a7e3c14e7df57ULL}},
    {"eagerWrites", {29403, 0x5adb21fd93bbbe34ULL}},
    {"lazyWrites", {28789, 0x66b6fc43e1a87a7eULL}},
    {"noRecycle", {27822, 0x310442aec6e1f173ULL}},
    {"frequentRefresh", {30081, 0x79096f936eb72b5bULL}},
    {"smallGeometry", {30110, 0x6aaf98fc41dcb5bcULL}},
    {"fewOutstanding", {30790, 0x059aa816404d833eULL}},
    {"kria", {28924, 0xa5906b539c462efbULL}},
    {"wideGeometry", {29215, 0x1a8407bf6049f241ULL}},
};

TEST_P(DramSweep, TrickledWritesManyIdsPins)
{
    ConcurrentPin got{};
    driveConcurrent(GetParam(), {16, 48, 300, 3, 5}, got);
    if (!HasFatalFailure())
        expectPin(GetParam(), got, kTrickledPins);
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
                  }),
        // KriaPlatform's channel: 8 banks behind a 16-byte bus.
        makeParam("kria",
                  [](auto &c) {
                      c.axi.dataBytes = 16;
                      c.timing = DramTiming::lpddr4_embedded();
                      c.geometry.nBankGroups = 2;
                      c.geometry.banksPerGroup = 4;
                      c.geometry.rowBytesPerBank = 4096;
                      c.geometry.interleaveBytes = 16;
                  }),
        // 64 banks, the most the controller takes: the last one is the
        // top bit of its bank masks.
        makeParam("wideGeometry",
                  [](auto &c) {
                      c.geometry.nBankGroups = 8;
                      c.geometry.banksPerGroup = 8;
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
                req.tag = sim.nextTag();
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
