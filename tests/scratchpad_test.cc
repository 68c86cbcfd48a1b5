/**
 * @file
 * Tests for the Scratchpad: port semantics, read latency, writes,
 * init-from-memory through a live Reader + DRAM controller, multiple
 * ports, and intra-core write ports.
 */

#include <gtest/gtest.h>

#include "base/rng.h"
#include "dram/controller.h"
#include "mem/scratchpad.h"

namespace beethoven
{
namespace
{

TEST(Scratchpad, PeekPokeRoundTrip)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 32;
    p.nDatas = 64;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    spad.pokeUint(5, 0xDEADBEEF);
    EXPECT_EQ(spad.peekUint(5), 0xDEADBEEFull);
    EXPECT_EQ(spad.peekUint(6), 0ull);
}

TEST(Scratchpad, PortReadAfterLatency)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 32;
    p.nDatas = 16;
    p.latency = 3;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    spad.pokeUint(7, 1234);

    SpadRequest req;
    req.row = 7;
    spad.reqPort(0).push(req);
    Cycle waited = 0;
    while (!spad.respPort(0).canPop()) {
        sim.step();
        ++waited;
        ASSERT_LT(waited, 50u);
    }
    // 1 cycle for the request queue + the configured read latency.
    EXPECT_GE(waited, 3u);
    const SpadResponse resp = spad.respPort(0).pop();
    EXPECT_EQ(resp.row, 7u);
    u64 v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= u64(resp.data[i]) << (8 * i);
    EXPECT_EQ(v, 1234u);
}

TEST(Scratchpad, PipelinedReadsSustainOnePerCycle)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 32;
    p.nDatas = 256;
    p.latency = 1;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    for (u32 i = 0; i < 256; ++i)
        spad.pokeUint(i, i * 3);

    u32 issued = 0, received = 0;
    const Cycle start = sim.cycle();
    while (received < 200) {
        if (issued < 200 && spad.reqPort(0).canPush()) {
            SpadRequest req;
            req.row = issued++;
            spad.reqPort(0).push(req);
        }
        if (spad.respPort(0).canPop()) {
            const auto resp = spad.respPort(0).pop();
            u64 v = 0;
            for (unsigned i = 0; i < 4; ++i)
                v |= u64(resp.data[i]) << (8 * i);
            ASSERT_EQ(v, u64(received) * 3);
            ++received;
        }
        sim.step();
        ASSERT_LT(sim.cycle() - start, 2000u);
    }
    // Steady state must be close to one response per cycle.
    EXPECT_LT(sim.cycle() - start, 230u);
}

TEST(Scratchpad, PortWrites)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 64;
    p.nDatas = 8;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);

    SpadRequest w;
    w.row = 3;
    w.write = true;
    w.data.assign(8, 0);
    w.data[0] = 0x42;
    spad.reqPort(0).push(w);
    sim.run(3);
    EXPECT_EQ(spad.peekUint(3), 0x42ull);
}

TEST(Scratchpad, MultiplePortsServeConcurrently)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 32;
    p.nDatas = 8;
    p.nPorts = 2;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    spad.pokeUint(1, 11);
    spad.pokeUint(2, 22);

    SpadRequest r1, r2;
    r1.row = 1;
    r2.row = 2;
    spad.reqPort(0).push(r1);
    spad.reqPort(1).push(r2);
    sim.run(5);
    ASSERT_TRUE(spad.respPort(0).canPop());
    ASSERT_TRUE(spad.respPort(1).canPop());
    EXPECT_EQ(spad.respPort(0).pop().data[0], 11);
    EXPECT_EQ(spad.respPort(1).pop().data[0], 22);
}

TEST(Scratchpad, IntraCoreWritePort)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 32;
    p.nDatas = 8;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    auto &port = spad.addIntraCoreWritePort();
    SpadRequest w;
    w.row = 2;
    w.write = true;
    w.data = {9, 0, 0, 0};
    port.push(w);
    sim.run(3);
    EXPECT_EQ(spad.peekUint(2), 9ull);
}

TEST(Scratchpad, InitFromMemoryThroughReader)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.axi.dataBytes = 64;
    DramController ctrl(sim, "ddr", cfg, mem);

    ScratchpadParams p;
    p.dataWidthBits = 128; // 16-byte rows
    p.nDatas = 64;
    p.supportsInit = true;

    ReaderParams rp;
    rp.dataBytes = 16;
    Reader init_reader(sim, "init", rp, cfg.axi, 0, &ctrl.arPort(),
                       &ctrl.rPort());
    Scratchpad spad(sim, "spad", p, &init_reader);

    Rng rng(9);
    std::vector<u8> rows(48 * 16);
    for (auto &b : rows)
        b = static_cast<u8>(rng.next());
    mem.write(0x10000, rows.size(), rows.data());

    spad.initPort().push({0x10000, 4, 48});
    const bool done = sim.runUntil(
        [&] { return spad.initDonePort().canPop(); }, 100000);
    ASSERT_TRUE(done);
    spad.initDonePort().pop();

    for (u32 r = 0; r < 48; ++r) {
        const auto row = spad.peek(4 + r);
        for (unsigned b = 0; b < 16; ++b)
            ASSERT_EQ(row[b], rows[r * 16 + b])
                << "row " << r << " byte " << b;
    }
    // Rows outside the init range stay zero.
    EXPECT_EQ(spad.peekUint(0), 0ull);
    EXPECT_EQ(spad.peekUint(63), 0ull);
}

TEST(Scratchpad, InitDoneTokenWaitsForRoom)
{
    // Three back-to-back inits, two of them empty, with nobody popping
    // the depth-2 done queue: the third token waits in the scratchpad
    // (which reports the wait as downstream stall) instead of being
    // dropped, and arrives once a token is popped.
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.axi.dataBytes = 64;
    DramController ctrl(sim, "ddr", cfg, mem);
    ScratchpadParams p;
    p.dataWidthBits = 128;
    p.nDatas = 16;
    ReaderParams rp;
    rp.dataBytes = 16;
    Reader init_reader(sim, "init", rp, cfg.axi, 0, &ctrl.arPort(),
                       &ctrl.rPort());
    Scratchpad spad(sim, "spad", p, &init_reader);

    for (const SpadInitCommand &cmd : {SpadInitCommand{0x1000, 0, 4},
                                       SpadInitCommand{0, 0, 0},
                                       SpadInitCommand{0x2000, 4, 4}}) {
        ASSERT_TRUE(sim.runUntil(
            [&] { return spad.initPort().canPush(); }, 1000));
        spad.initPort().push(cmd);
    }
    sim.run(2000);
    EXPECT_EQ(spad.initDonePort().occupancy(), 2u);

    unsigned tokens = 0;
    ASSERT_TRUE(sim.runUntil(
        [&] {
            if (spad.initDonePort().canPop()) {
                spad.initDonePort().pop();
                ++tokens;
            }
            return tokens == 3;
        },
        100));
    EXPECT_FALSE(spad.initDonePort().canPop());

    // The slept wait is backfilled as downstream stall on waking.
    const StallAccount *acct = nullptr;
    for (const StallAccount *a : sim.stallAccounts())
        if (a->name() == "spad")
            acct = a;
    ASSERT_NE(acct, nullptr);
    EXPECT_GT(acct->count(StallClass::StallDownstream), 1000u);
}

TEST(Scratchpad, InitRangeValidation)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 32;
    p.nDatas = 8;
    p.supportsInit = true;
    ReaderParams rp;
    rp.dataBytes = 4;
    TimedQueue<ReadRequest> ar(sim, 2);
    TimedQueue<ReadBeat> r(sim, 2);
    Reader init_reader(sim, "init", rp, AxiConfig{}, 0, &ar, &r);
    Scratchpad spad(sim, "spad", p, &init_reader);
    spad.initPort().push({0, 4, 8}); // 4 + 8 > 8 rows
    EXPECT_DEATH({ sim.run(3); }, "init range");
}

TEST(Scratchpad, WidthMismatchedInitReaderPanics)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 64;
    p.nDatas = 8;
    p.supportsInit = true;
    ReaderParams rp;
    rp.dataBytes = 4; // != 8-byte rows
    TimedQueue<ReadRequest> ar(sim, 2);
    TimedQueue<ReadBeat> r(sim, 2);
    Reader init_reader(sim, "init", rp, AxiConfig{}, 0, &ar, &r);
    EXPECT_DEATH(Scratchpad(sim, "spad", p, &init_reader),
                 "init reader port width");
}

} // namespace
} // namespace beethoven
