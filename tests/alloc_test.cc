/**
 * @file
 * Allocation gates for the per-cycle simulation path. Heap allocation
 * counts are deterministic, so these are exact (or, for a whole SoC,
 * tight) bounds with no noise floor: TimedQueue round trips, scratchpad
 * port accesses, wake-wheel traffic and DRAM bursts allocate nothing
 * once warm, and a GeMM SoC's steady state stays within a fixed
 * per-cycle budget.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/machsuite/gemm.h"
#include "axi/axi_types.h"
#include "base/rng.h"
#include "baselines/machsuite_golden.h"
#include "dram/controller.h"
#include "mem/scratchpad.h"
#include "perf/kpi.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"
#include "sim/queue.h"
#include "sim/wake_wheel.h"

namespace beethoven
{
namespace
{

u64
allocsNow()
{
    return allocCounters().allocs;
}

/** push -> step -> pop round trips through a TimedQueue. */
template <typename T>
u64
queueRoundTripAllocs(const T &prototype)
{
    Simulator sim;
    TimedQueue<T> q(sim, 4, 1);
    std::vector<T> pool(4, prototype);
    const u64 before = allocsNow();
    for (unsigned i = 0; i < 1000; ++i) {
        T &slot = pool[i % pool.size()];
        q.push(std::move(slot));
        sim.step();
        slot = q.pop();
    }
    return allocsNow() - before;
}

TEST(AllocGate, QueueRoundTripsAllocateNothing)
{
    ReadBeat beat;
    beat.data.assign(64, 0xA5);
    EXPECT_EQ(queueRoundTripAllocs(beat), 0u);
    SpadResponse resp;
    resp.data.assign(64, 0x5A);
    EXPECT_EQ(queueRoundTripAllocs(resp), 0u);
}

/** Reads port 0 and writes port 1 of a scratchpad every cycle. */
class SpadTraffic : public Module
{
  public:
    SpadTraffic(Simulator &sim, Scratchpad &spad)
        : Module(sim, "traffic"), _spad(spad)
    {}

    void
    tick() override
    {
        const unsigned rows = _spad.params().nDatas;
        if (_spad.respPort(0).canPop()) {
            _spad.respPort(0).pop();
            ++responses;
        }
        auto &rd = _spad.reqPort(0);
        auto &wr = _spad.reqPort(1);
        if (rd.canPush() && wr.canPush()) {
            SpadRequest r;
            r.row = _n % rows;
            rd.push(std::move(r));
            SpadRequest w;
            w.row = (_n * 7) % rows;
            w.write = true;
            w.data.assign(_spad.params().rowBytes(), static_cast<u8>(_n));
            wr.push(std::move(w));
            ++_n;
        }
    }

    u64 responses = 0;

  private:
    Scratchpad &_spad;
    u32 _n = 0;
};

TEST(AllocGate, ScratchpadPortsAllocateNothingAfterFirstWrite)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 512; // the widest shipped row
    p.nDatas = 256;
    p.nPorts = 2;
    p.supportsInit = false;
    Scratchpad spad(sim, "spad", p, nullptr);
    SpadTraffic traffic(sim, spad);
    // The first write allocates the rows; let it land.
    sim.run(16);
    ASSERT_GT(spad.accesses(), 0u);

    const u64 accesses0 = spad.accesses();
    const u64 before = allocsNow();
    sim.run(2000);
    const u64 allocs = allocsNow() - before;
    EXPECT_GT(spad.accesses() - accesses0, 3000u);
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(traffic.responses, 1000u);
}

/** Inert wake target: the wheel stores it, nothing ticks it. */
class Inert : public Module
{
  public:
    using Module::Module;
    void tick() override {}
};

TEST(AllocGate, WakeWheelAllocatesNothingOnceWarm)
{
    Simulator sim;
    std::vector<std::unique_ptr<Inert>> mods;
    for (unsigned i = 0; i < 32; ++i)
        mods.push_back(
            std::make_unique<Inert>(sim, "m" + std::to_string(i)));
    WakeWheel wheel;
    u64 delivered = 0;
    // Four ring wakes a cycle, 1-64 cycles out: a pattern that repeats
    // every 64 cycles, so the number armed at once peaks in the first
    // few periods. Warm means that peak was reached, not that every
    // one of the wheel's 1024 slots was touched.
    auto run = [&](Cycle from, Cycle to) {
        for (Cycle now = from; now < to; ++now) {
            for (unsigned k = 0; k < 4; ++k)
                wheel.schedule(now, now + 1 + (now * 7 + k * 13) % 64,
                               mods[(now + k) % mods.size()].get());
            wheel.drain(now, [&](Module *) { ++delivered; });
        }
    };
    run(0, 256);
    const u64 before = allocsNow();
    run(256, 4096);
    EXPECT_EQ(allocsNow() - before, 0u);
    EXPECT_GT(delivered, 15000u);
}

TEST(AllocGate, DramBurstsAllocateNothingOnceWarm)
{
    // 16-beat reads and writes on four AXI IDs each, up to 16 in flight
    // per direction, over a fixed set of addresses: once warm, every
    // burst reuses a retired burst's storage and every fresh ID queue a
    // retired one's node. Traffic keeps flowing past the window, so it
    // holds neither an idle controller nor the final drain.
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    DramController ctrl(sim, "ddr", cfg, mem);
    const unsigned bus = cfg.axi.dataBytes;
    constexpr u64 kWarm = 256, kEnd = kWarm + 2048, kBursts = kEnd + 64;
    constexpr u32 kBeats = 16;
    constexpr Addr kWriteBase = Addr(1) << 20;
    u64 reads = 0, writes = 0, reads_done = 0, writes_done = 0;
    u32 w_beat = 0; // next beat of the write burst being sent
    u64 before = 0;
    while (reads_done < kEnd || writes_done < kEnd) {
        if (before == 0 && reads_done >= kWarm && writes_done >= kWarm)
            before = allocsNow();
        if (reads < kBursts && reads - reads_done < 16 &&
            ctrl.arPort().canPush()) {
            ctrl.arPort().push(ReadRequest{static_cast<u32>(reads % 4),
                                           (reads % 64) * 4096, kBeats,
                                           sim.nextTag()});
            ++reads;
        }
        if (writes < kBursts && writes - writes_done < 16 &&
            ctrl.wPort().canPush()) {
            WriteFlit flit;
            flit.hasHeader = w_beat == 0;
            flit.header = {static_cast<u32>(writes % 4),
                           kWriteBase + (writes % 64) * 4096, kBeats,
                           sim.nextTag()};
            flit.beat.data.assign(bus, static_cast<u8>(writes));
            flit.beat.last = ++w_beat == kBeats;
            if (flit.beat.last) {
                w_beat = 0;
                ++writes;
            }
            ctrl.wPort().push(std::move(flit));
        }
        if (ctrl.rPort().canPop() && ctrl.rPort().pop().last)
            ++reads_done;
        if (ctrl.bPort().canPop()) {
            ctrl.bPort().pop();
            ++writes_done;
        }
        sim.step();
    }
    ASSERT_NE(before, 0u);
    EXPECT_EQ(allocsNow() - before, 0u);
}

TEST(AllocGate, GemmSteadyStateAllocationsPerCycle)
{
    using machsuite::GemmCore;
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(GemmCore::systemConfig(1)),
                       platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    const unsigned n = 64;
    Rng rng(n);
    std::vector<i32> a(n * n), bt(n * n);
    for (auto &v : a)
        v = static_cast<i32>(rng.nextRange(0, 2000)) - 1000;
    for (auto &v : bt)
        v = static_cast<i32>(rng.nextRange(0, 2000)) - 1000;
    remote_ptr a_mem = handle.malloc(n * n * 4);
    remote_ptr bt_mem = handle.malloc(n * n * 4);
    remote_ptr c_mem = handle.malloc(n * n * 4);
    std::memcpy(a_mem.getHostAddr(), a.data(), n * n * 4);
    std::memcpy(bt_mem.getHostAddr(), bt.data(), n * n * 4);
    handle.copy_to_fpga(a_mem);
    handle.copy_to_fpga(bt_mem);
    auto resp = handle.invoke("GemmSystem", "gemm", 0,
                              {a_mem.getFpgaAddr(), bt_mem.getFpgaAddr(),
                               c_mem.getFpgaAddr(), n});

    // Steady state starts with the first port responses: every
    // scratchpad access beyond the B^T fill (one per row) is a read.
    const StallAccount *bmat = nullptr;
    for (const StallAccount *acct : soc.sim().stallAccounts())
        if (acct->name().ends_with(".bmat"))
            bmat = acct;
    ASSERT_NE(bmat, nullptr);
    const u64 fill_rows = n * n / GemmCore::lanes;
    Simulator &sim = soc.sim();
    ASSERT_TRUE(sim.runUntil(
        [&] { return bmat->count(StallClass::Busy) > fill_rows + 16; },
        100000));

    // The window lies inside the compute phase, whose n^3 / lanes
    // scratchpad reads keep the scratchpad busy nearly every cycle.
    constexpr Cycle kWindow = 12000;
    const u64 busy0 = bmat->count(StallClass::Busy);
    const u64 before = allocsNow();
    sim.run(kWindow);
    const double per_cycle = double(allocsNow() - before) / kWindow;
    EXPECT_GT(bmat->count(StallClass::Busy) - busy0, kWindow * 9 / 10);
    // Measured 37 in the window (0.0031/cycle). The DRAM controller and
    // the Reader recycle their per-burst storage, and nothing allocates
    // per beat, row or cycle.
    EXPECT_LE(per_cycle, 0.0031);

    resp.get();
    handle.copy_from_fpga(c_mem);
    const auto golden = machsuite::goldenGemm(a, bt, n);
    const i32 *c = c_mem.as<i32>();
    for (unsigned i = 0; i < n * n; ++i)
        ASSERT_EQ(c[i], golden[i]) << "idx=" << i;
}

} // namespace
} // namespace beethoven
