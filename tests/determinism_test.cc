/**
 * @file
 * Determinism regression tests: the simulator derives everything from
 * seeds and cycle counts (never wall clock), so two runs of the same
 * seed + configuration must agree bit-for-bit — same stats JSON, same
 * cycle counts, same AXI event stream length.
 *
 * The cross-kernel section is the differential gate for the
 * event-driven kernel: the tick kernel is the reference semantics, and
 * every workload here must produce a bit-identical stats digest, final
 * cycle count, and power-ledger energy under both kernels.
 *
 * The run-isolation section runs independent SoCs on concurrent threads
 * of one process: each must produce the digest of its serial run, so no
 * simulator state leaks between runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "accel/machsuite/gemm.h"
#include "accel/memcpy_core.h"
#include "accel/vecadd.h"
#include "base/rng.h"
#include "baselines/machsuite_golden.h"
#include "platform/sim_platform.h"
#include "power/power.h"
#include "runtime/fpga_handle.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"
#include "verify/traffic.h"

namespace beethoven
{
namespace
{

/** Digest of one finished run: everything a kernel may not perturb. */
struct RunDigest
{
    std::string stats; ///< stats-tree JSON + "@" + final cycle
    Cycle cycles = 0;
    double joules = 0.0; ///< power-ledger total energy
};

/** Snapshot @p soc's observable end state as a RunDigest. */
RunDigest
digestOf(AcceleratorSoc &soc)
{
    RunDigest d;
    soc.sim().publishStallStats();
    std::ostringstream os;
    soc.sim().stats().dumpJson(os);
    os << "@" << soc.sim().cycle();
    d.stats = os.str();
    d.cycles = soc.sim().cycle();
    d.joules = soc.power().totalJoules(soc.sim().cycle());
    return d;
}

/**
 * Run the canonical vecadd workload under @p kernel and digest the
 * full stats tree (including the published stall accounts).
 */
RunDigest
vecAddDigest(u64 seed, SimKernel kernel)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(2));
    AcceleratorSoc soc(std::move(cfg), platform);
    soc.sim().setKernel(kernel);
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
    return digestOf(soc);
}

/** Run one memcpy stream under @p kernel and digest the end state. */
RunDigest
memcpyDigest(SimKernel kernel)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg(
        MemcpyCore::systemConfig(1, MemcpyCore::Variant{}));
    AcceleratorSoc soc(std::move(cfg), platform);
    soc.sim().setKernel(kernel);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    const u64 len = 4096;
    remote_ptr src = handle.malloc(len);
    remote_ptr dst = handle.malloc(len);
    for (u64 i = 0; i < len; ++i)
        src.getHostAddr()[i] = static_cast<u8>(i * 31);
    handle.copy_to_fpga(src);
    handle
        .invoke("MemcpySystem", "do_memcpy", 0,
                {src.getFpgaAddr(), dst.getFpgaAddr(), len})
        .get();
    handle.copy_from_fpga(dst);
    for (u64 i = 0; i < len; ++i)
        EXPECT_EQ(dst.getHostAddr()[i], static_cast<u8>(i * 31));
    return digestOf(soc);
}

/** Run one MachSuite gemm end to end under @p kernel and digest it. */
RunDigest
gemmDigest(SimKernel kernel)
{
    using machsuite::GemmCore;
    SimulationPlatform platform;
    AcceleratorConfig cfg(GemmCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    soc.sim().setKernel(kernel);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    const unsigned n = 16;
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
    handle
        .invoke("GemmSystem", "gemm", 0,
                {a_mem.getFpgaAddr(), bt_mem.getFpgaAddr(),
                 c_mem.getFpgaAddr(), n})
        .get();
    handle.copy_from_fpga(c_mem);

    const auto golden = machsuite::goldenGemm(a, bt, n);
    const i32 *c = c_mem.as<i32>();
    for (unsigned i = 0; i < n * n; ++i)
        EXPECT_EQ(c[i], golden[i]) << "idx=" << i;
    return digestOf(soc);
}

TEST(Determinism, IdenticalSeedGivesIdenticalStatsDigest)
{
    const RunDigest first = vecAddDigest(0xD5EED, SimKernel::Tick);
    const RunDigest second = vecAddDigest(0xD5EED, SimKernel::Tick);
    EXPECT_EQ(first.stats, second.stats);
    EXPECT_FALSE(first.stats.empty());
}

TEST(Determinism, DifferentSeedsGiveDifferentData)
{
    // Sanity check that the digest actually depends on the workload
    // (different payloads, same schedule shape is fine — the digest
    // includes data-independent stats, so just require the runs ran).
    const RunDigest a = vecAddDigest(1, SimKernel::Tick);
    EXPECT_FALSE(a.stats.empty());
}

TEST(Determinism, FuzzCaseReplaysBitIdentical)
{
    using namespace verify;
    RandomSocBuilder builder(0xBEE7);
    FuzzCase c = builder.sample();
    RandomTrafficGen traffic(0xBEE7 ^ 0xFF);
    traffic.generate(c, 5);

    FuzzOptions opt;
    const FuzzResult a = runFuzzCase(c, opt);
    const FuzzResult b = runFuzzCase(c, opt);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.axiEvents, b.axiEvents);
    EXPECT_EQ(a.responses, b.responses);
    EXPECT_EQ(a.statsDigest, b.statsDigest);
    EXPECT_EQ(a.kind, FailKind::None) << a.message;
}

// --- Cross-kernel differential gate -----------------------------------

/** Both kernels must agree on every field of the digest. */
void
expectKernelsAgree(const RunDigest &tick, const RunDigest &event,
                   const char *workload)
{
    EXPECT_EQ(tick.cycles, event.cycles) << workload;
    EXPECT_EQ(tick.stats, event.stats) << workload;
    EXPECT_EQ(tick.joules, event.joules) << workload;
    EXPECT_FALSE(tick.stats.empty()) << workload;
}

TEST(CrossKernel, VecAddBitIdentical)
{
    const RunDigest tick = vecAddDigest(0xD5EED, SimKernel::Tick);
    expectKernelsAgree(tick, vecAddDigest(0xD5EED, SimKernel::Event),
                       "vecadd event");
}

TEST(CrossKernel, MemcpyBitIdentical)
{
    const RunDigest tick = memcpyDigest(SimKernel::Tick);
    expectKernelsAgree(tick, memcpyDigest(SimKernel::Event),
                       "memcpy event");
}

TEST(CrossKernel, MachSuiteGemmBitIdentical)
{
    const RunDigest tick = gemmDigest(SimKernel::Tick);
    expectKernelsAgree(tick, gemmDigest(SimKernel::Event),
                       "gemm event");
}

TEST(CrossKernel, EventKernelFuzzReplayDeterministic)
{
    // The event kernel must be as deterministic as the tick kernel:
    // replaying one fuzz composition twice under it gives the same
    // digest, and that digest equals the tick kernel's.
    using namespace verify;
    RandomSocBuilder builder(0xBEE7);
    FuzzCase c = builder.sample();
    RandomTrafficGen traffic(0xBEE7 ^ 0xFF);
    traffic.generate(c, 5);

    FuzzOptions opt;
    opt.kernel = SimKernel::Event;
    const FuzzResult a = runFuzzCase(c, opt);
    const FuzzResult b = runFuzzCase(c, opt);
    EXPECT_EQ(a.kind, FailKind::None) << a.message;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.statsDigest, b.statsDigest);

    FuzzOptions tick_opt;
    const FuzzResult t = runFuzzCase(c, tick_opt);
    EXPECT_EQ(t.cycles, a.cycles);
    EXPECT_EQ(t.statsDigest, a.statsDigest);
}

// --- Run isolation ----------------------------------------------------

TEST(RunIsolation, ConcurrentRunsMatchSerialDigests)
{
    // Two independent SoCs stepping at the same time on two threads
    // must each reproduce their serial digest: the KPI counters, the
    // graph-validation latch and the planted-fault counters are per
    // thread, and nothing else is shared between Simulators.
    const RunDigest vecadd = vecAddDigest(0xD5EED, SimKernel::Event);
    const RunDigest copy = memcpyDigest(SimKernel::Event);
    const u64 cycles_before = globalSimCycles();

    RunDigest vecadd_conc, copy_conc;
    u64 vecadd_kpi = 0, copy_kpi = 0;
    std::thread a([&] {
        vecadd_conc = vecAddDigest(0xD5EED, SimKernel::Event);
        vecadd_kpi = globalSimCycles();
    });
    std::thread b([&] {
        copy_conc = memcpyDigest(SimKernel::Event);
        copy_kpi = globalSimCycles();
    });
    a.join();
    b.join();

    expectKernelsAgree(vecadd, vecadd_conc, "vecadd concurrent");
    expectKernelsAgree(copy, copy_conc, "memcpy concurrent");
    // Each thread counted only its own run's cycles.
    EXPECT_EQ(vecadd_kpi, vecadd.cycles);
    EXPECT_EQ(copy_kpi, copy.cycles);
    EXPECT_EQ(globalSimCycles(), cycles_before);
}

} // namespace
} // namespace beethoven
