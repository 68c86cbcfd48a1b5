/**
 * @file
 * Tests for the DRAM controller: address mapping, protocol legality
 * under random traffic, same-ID ordering, row-hit timing benefits,
 * TLP bandwidth behaviour and write-data integrity.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/rng.h"
#include "dram/controller.h"

namespace beethoven
{
namespace
{

TEST(DramMapping, RotatesBanksAcrossBeats)
{
    DramGeometry g;
    std::set<unsigned> banks;
    for (unsigned beat = 0; beat < g.numBanks(); ++beat)
        banks.insert(mapAddress(g, beat * g.interleaveBytes).bank);
    EXPECT_EQ(banks.size(), g.numBanks())
        << "consecutive beats must hit distinct banks";
}

TEST(DramMapping, RowCoversContiguousSpan)
{
    DramGeometry g;
    const auto first = mapAddress(g, 0);
    // Same bank, next column: one full rotation later.
    const auto next_col =
        mapAddress(g, u64(g.numBanks()) * g.interleaveBytes);
    EXPECT_EQ(next_col.bank, first.bank);
    EXPECT_EQ(next_col.row, first.row);
    EXPECT_EQ(next_col.column, first.column + 1);
    // Past the row: row increments.
    const u64 row_span = u64(g.numBanks()) * g.rowBytesPerBank;
    const auto next_row = mapAddress(g, row_span);
    EXPECT_EQ(next_row.bank, first.bank);
    EXPECT_EQ(next_row.row, first.row + 1);
}

struct CtrlHarness
{
    Simulator sim;
    FunctionalMemory mem;
    DramController ctrl;

    explicit CtrlHarness(unsigned data_bytes = 64)
        : ctrl(sim, "ddr", makeConfig(data_bytes), mem)
    {
        ctrl.timeline().setEnabled(true);
    }

    static DramController::Config
    makeConfig(unsigned data_bytes)
    {
        DramController::Config cfg;
        cfg.axi.dataBytes = data_bytes;
        return cfg;
    }

    /** Issue a read and wait for all beats; returns (latency, data). */
    std::pair<Cycle, std::vector<u8>>
    blockingRead(u32 id, Addr addr, u32 beats)
    {
        ReadRequest req{id, addr, beats, sim.nextTag()};
        while (!ctrl.arPort().canPush())
            sim.step();
        ctrl.arPort().push(req);
        const Cycle start = sim.cycle();
        std::vector<u8> data;
        u32 got = 0;
        while (got < beats) {
            if (ctrl.rPort().canPop()) {
                ReadBeat b = ctrl.rPort().pop();
                EXPECT_EQ(b.tag, req.tag);
                data.insert(data.end(), b.data.begin(), b.data.end());
                ++got;
                EXPECT_EQ(b.last, got == beats);
            } else {
                sim.step();
                if (sim.cycle() - start > 100000u) {
                    ADD_FAILURE() << "read hung";
                    return {0, {}};
                }
            }
        }
        return {sim.cycle() - start, data};
    }

    /** Issue a full write burst and wait for B. */
    void
    blockingWrite(u32 id, Addr addr, const std::vector<u8> &bytes)
    {
        const unsigned bus = ctrl.config().axi.dataBytes;
        const u32 beats = static_cast<u32>(bytes.size() / bus);
        const u64 tag = sim.nextTag();
        for (u32 b = 0; b < beats; ++b) {
            WriteFlit flit;
            if (b == 0) {
                flit.hasHeader = true;
                flit.header = {id, addr, beats, tag};
            }
            flit.beat.data.assign(bytes.begin() + b * bus,
                                  bytes.begin() + (b + 1) * bus);
            flit.beat.last = b + 1 == beats;
            while (!ctrl.wPort().canPush())
                sim.step();
            ctrl.wPort().push(std::move(flit));
            sim.step();
        }
        const Cycle start = sim.cycle();
        while (true) {
            if (ctrl.bPort().canPop()) {
                EXPECT_EQ(ctrl.bPort().pop().tag, tag);
                return;
            }
            sim.step();
            ASSERT_LT(sim.cycle() - start, 100000u) << "write hung";
        }
    }
};

TEST(DramController, ReadReturnsWrittenData)
{
    CtrlHarness h;
    std::vector<u8> bytes(4096);
    Rng rng(3);
    for (auto &b : bytes)
        b = static_cast<u8>(rng.next());
    h.mem.write(0x10000, bytes.size(), bytes.data());
    auto [latency, data] = h.blockingRead(0, 0x10000, 64);
    EXPECT_EQ(data, bytes);
}

TEST(DramController, WriteLandsInMemoryExactly)
{
    CtrlHarness h;
    std::vector<u8> bytes(1024);
    Rng rng(4);
    for (auto &b : bytes)
        b = static_cast<u8>(rng.next());
    // Surround with sentinels to catch overwrites.
    std::vector<u8> sentinel(64, 0x5A);
    h.mem.write(0x20000 - 64, 64, sentinel.data());
    h.mem.write(0x20000 + 1024, 64, sentinel.data());

    h.blockingWrite(1, 0x20000, bytes);
    std::vector<u8> out(1024);
    h.mem.read(0x20000, 1024, out.data());
    EXPECT_EQ(out, bytes);
    std::vector<u8> before(64), after(64);
    h.mem.read(0x20000 - 64, 64, before.data());
    h.mem.read(0x20000 + 1024, 64, after.data());
    EXPECT_EQ(before, sentinel);
    EXPECT_EQ(after, sentinel);
}

TEST(DramController, RowHitFasterThanRowMiss)
{
    CtrlHarness h;
    const DramGeometry g = h.ctrl.config().geometry;
    // Warm a row. Use distinct AXI IDs and idle gaps so the same-ID
    // reorder-slot recycle does not contaminate the comparison.
    h.blockingRead(0, 0, 1);
    h.sim.run(64);
    const auto [hit_latency, d1] = h.blockingRead(1, 0, 1);
    // Different row in the same bank.
    h.sim.run(64);
    const Addr other_row = u64(g.numBanks()) * g.rowBytesPerBank * 7;
    ASSERT_EQ(mapAddress(g, other_row).bank, mapAddress(g, 0ull).bank);
    const auto [miss_latency, d2] = h.blockingRead(2, other_row, 1);
    EXPECT_LT(hit_latency, miss_latency);
}

TEST(DramController, SameIdReadsReturnInRequestOrder)
{
    CtrlHarness h;
    // Queue several reads on one ID to scattered rows; responses must
    // come back in request order regardless of row state.
    std::vector<u64> tags;
    Rng rng(8);
    for (int i = 0; i < 6; ++i) {
        ReadRequest req;
        req.id = 3;
        req.addr = (rng.nextBounded(64)) * 1_MiB;
        req.beats = 4;
        req.tag = h.sim.nextTag();
        while (!h.ctrl.arPort().canPush())
            h.sim.step();
        h.ctrl.arPort().push(req);
        tags.push_back(req.tag);
        h.sim.step();
    }
    std::vector<u64> seen;
    const Cycle start = h.sim.cycle();
    while (seen.size() < tags.size()) {
        if (h.ctrl.rPort().canPop()) {
            ReadBeat b = h.ctrl.rPort().pop();
            if (b.last)
                seen.push_back(b.tag);
        } else {
            h.sim.step();
        }
        ASSERT_LT(h.sim.cycle() - start, 100000u);
    }
    EXPECT_EQ(seen, tags);
}

TEST(DramController, RandomTrafficIsAxiLegal)
{
    CtrlHarness h;
    Rng rng(123);
    for (int i = 0; i < 40; ++i) {
        if (rng.nextBounded(2) == 0) {
            h.blockingRead(static_cast<u32>(rng.nextBounded(8)),
                           rng.nextBounded(256) * 4096,
                           1 + static_cast<u32>(rng.nextBounded(16)));
        } else {
            std::vector<u8> data(
                64 * (1 + rng.nextBounded(8)));
            for (auto &b : data)
                b = static_cast<u8>(rng.next());
            h.blockingWrite(static_cast<u32>(rng.nextBounded(8)),
                            rng.nextBounded(256) * 4096, data);
        }
    }
    EXPECT_EQ(checkAxiProtocol(h.ctrl.timeline().events()), "");
}

TEST(DramController, DistinctIdsOverlapSameIdsSerialize)
{
    // Aggregate bandwidth with 4 outstanding reads: distinct IDs must
    // beat one shared ID (the paper's central TLP claim).
    auto run = [](bool distinct) {
        CtrlHarness h;
        h.ctrl.timeline().setEnabled(false);
        const unsigned txns = 64, beats = 16;
        unsigned issued = 0, retired = 0;
        const Cycle start = h.sim.cycle();
        std::map<u64, u32> outstanding;
        while (retired < txns) {
            if (issued < txns && outstanding.size() < 4 &&
                h.ctrl.arPort().canPush()) {
                ReadRequest req;
                req.id = distinct ? (issued % 4) : 0;
                req.addr = Addr(issued) * 1024;
                req.beats = beats;
                req.tag = h.sim.nextTag();
                h.ctrl.arPort().push(req);
                outstanding[req.tag] = 0;
                ++issued;
            }
            if (h.ctrl.rPort().canPop()) {
                ReadBeat b = h.ctrl.rPort().pop();
                if (b.last) {
                    outstanding.erase(b.tag);
                    ++retired;
                }
            }
            h.sim.step();
        }
        return h.sim.cycle() - start;
    };
    const Cycle distinct = run(true);
    const Cycle same = run(false);
    EXPECT_LT(distinct * 5, same * 4)
        << "TLP should be >25% faster (distinct=" << distinct
        << " same=" << same << ")";
}

TEST(DramController, RejectsOversizedBursts)
{
    CtrlHarness h;
    ReadRequest req{0, 0, 65, h.sim.nextTag()}; // max is 64
    h.ctrl.arPort().push(req);
    EXPECT_DEATH({ h.sim.run(4); }, "illegal read burst");
}

TEST(DramController, RejectsOversizedWriteBursts)
{
    CtrlHarness h;
    WriteFlit flit;
    flit.hasHeader = true;
    flit.header = {0, 0, 65, h.sim.nextTag()}; // max is 64
    flit.beat.data.assign(64, 0);
    h.ctrl.wPort().push(std::move(flit));
    EXPECT_DEATH({ h.sim.run(4); }, "illegal write burst");
}

TEST(DramController, RejectsWriteBurstOverrun)
{
    // The second beat of a 2-beat burst lacks `last`, so a third beat
    // follows: it must be refused, not stored past the burst's end.
    CtrlHarness h;
    const u64 tag = h.sim.nextTag();
    for (u32 b = 0; b < 3; ++b) {
        WriteFlit flit;
        flit.hasHeader = b == 0;
        flit.header = {0, 0, 2, tag};
        flit.beat.data.assign(64, static_cast<u8>(b));
        h.ctrl.wPort().push(std::move(flit));
    }
    EXPECT_DEATH({ h.sim.run(8); }, "overruns its 2-beat write burst");
}

TEST(DramController, RejectsUnmappableGeometry)
{
    // mapAddress() divides by the bank count and the row's column
    // count, and the scheduler keeps one bit per bank in a 64-bit mask.
    struct Case
    {
        const char *field;
        DramGeometry geometry;
    };
    auto with = [](auto tweak) {
        DramGeometry g;
        tweak(g);
        return g;
    };
    const Case cases[] = {
        {"nBankGroups is 0", with([](auto &g) { g.nBankGroups = 0; })},
        {"banksPerGroup is 0", with([](auto &g) { g.banksPerGroup = 0; })},
        {"interleaveBytes is 0",
         with([](auto &g) { g.interleaveBytes = 0; })},
        {"rowBytesPerBank 32 is below interleaveBytes 64",
         with([](auto &g) { g.rowBytesPerBank = 32; })},
        {"nBankGroups 32 x banksPerGroup 4 exceeds the controller's 64 "
         "banks",
         with([](auto &g) { g.nBankGroups = 32; })},
    };
    for (const Case &c : cases) {
        Simulator sim;
        FunctionalMemory mem;
        DramController::Config cfg;
        cfg.geometry = c.geometry;
        try {
            DramController ctrl(sim, "ddr", cfg, mem);
            ADD_FAILURE() << "accepted a geometry where " << c.field;
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << e.what();
        }
    }
    // The widest geometry it takes: 64 banks.
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.geometry.nBankGroups = 16;
    EXPECT_NO_THROW(DramController(sim, "ddr", cfg, mem));
}

TEST(DramController, SameTagOnTwoIdsCompletesBoth)
{
    // Tags are opaque labels: two in-flight reads may share one.
    CtrlHarness h;
    std::vector<u8> bytes(512);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<u8>(i * 7 + 1);
    h.mem.write(0, bytes.size(), bytes.data());
    h.ctrl.arPort().push(ReadRequest{0, 0, 4, 7});
    h.ctrl.arPort().push(ReadRequest{1, 256, 4, 7});
    std::map<u32, std::vector<u8>> got; // by ID
    unsigned beats = 0, lasts = 0;
    const Cycle start = h.sim.cycle();
    while (beats < 8) {
        if (h.ctrl.rPort().canPop()) {
            const ReadBeat b = h.ctrl.rPort().pop();
            EXPECT_EQ(b.tag, 7u);
            got[b.id].insert(got[b.id].end(), b.data.begin(), b.data.end());
            ++beats;
            lasts += b.last ? 1 : 0;
        } else {
            h.sim.step();
            ASSERT_LT(h.sim.cycle() - start, 10000u) << "reads hung";
        }
    }
    EXPECT_EQ(lasts, 2u);
    EXPECT_EQ(got[0], std::vector<u8>(bytes.begin(), bytes.begin() + 256));
    EXPECT_EQ(got[1], std::vector<u8>(bytes.begin() + 256, bytes.end()));
}

} // namespace
} // namespace beethoven
