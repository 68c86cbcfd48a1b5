/**
 * @file
 * Tests for the host runtime: HostInterface serialization and latency,
 * DMA round trips, response-token allocation and matching, multiple
 * outstanding responses, and hung-accelerator timeouts.
 */

#include <gtest/gtest.h>

#include "accel/vecadd.h"
#include "platform/aws_f1.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"

namespace beethoven
{
namespace
{

TEST(HostInterface, OperationsSerializeWithLatency)
{
    AwsF1Platform platform; // 125-cycle reads, 62-cycle writes
    AcceleratorConfig cfg(VecAddCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    HostInterface host(soc.sim(), "host", soc.mmio(), soc.memory(),
                       platform);

    std::vector<Cycle> completions;
    for (int i = 0; i < 3; ++i) {
        HostOp op;
        op.kind = HostOp::Kind::Read32;
        op.offset = mmio_regs::cmdReady;
        op.done = [&](u32) { completions.push_back(soc.sim().cycle()); };
        host.enqueue(std::move(op));
    }
    soc.sim().runUntil([&] { return completions.size() == 3; },
                       10000);
    ASSERT_EQ(completions.size(), 3u);
    // Each read occupies the link for its full latency.
    EXPECT_GE(completions[1] - completions[0], 124u);
    EXPECT_GE(completions[2] - completions[1], 124u);
}

TEST(HostInterface, DmaMovesExactBytes)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    HostInterface host(soc.sim(), "host", soc.mmio(), soc.memory(),
                       platform);

    std::vector<u8> src(1000);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<u8>(i * 7);
    bool done = false;
    HostOp out;
    out.kind = HostOp::Kind::DmaToDevice;
    out.devAddr = 0x7000;
    out.hostSrc = src.data();
    out.len = src.size();
    out.done = [&](u32) { done = true; };
    host.enqueue(std::move(out));
    soc.sim().runUntil([&] { return done; }, 10000);
    ASSERT_TRUE(done);

    std::vector<u8> back(1000);
    done = false;
    HostOp in;
    in.kind = HostOp::Kind::DmaFromDevice;
    in.devAddr = 0x7000;
    in.hostDst = back.data();
    in.len = back.size();
    in.done = [&](u32) { done = true; };
    host.enqueue(std::move(in));
    soc.sim().runUntil([&] { return done; }, 10000);
    ASSERT_TRUE(done);
    EXPECT_EQ(back, src);
}

TEST(HostInterface, DmaCostScalesWithSize)
{
    AwsF1Platform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    HostInterface host(soc.sim(), "host", soc.mmio(), soc.memory(),
                       platform);

    auto time_dma = [&](std::size_t len) {
        std::vector<u8> buf(len);
        bool done = false;
        HostOp op;
        op.kind = HostOp::Kind::DmaToDevice;
        op.devAddr = 0x9000;
        op.hostSrc = buf.data();
        op.len = len;
        op.done = [&](u32) { done = true; };
        const Cycle start = soc.sim().cycle();
        host.enqueue(std::move(op));
        soc.sim().runUntil([&] { return done; }, 10'000'000);
        return soc.sim().cycle() - start;
    };
    const Cycle small = time_dma(4096);
    const Cycle large = time_dma(1_MiB);
    EXPECT_GT(large, 4 * small);
}

TEST(RuntimeServer, RdTokensRotatePerCore)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(2));
    AcceleratorSoc soc(std::move(cfg), platform);
    RuntimeServer server(soc);
    const u32 a0 = server.allocateRd(0, 0);
    const u32 a1 = server.allocateRd(0, 0);
    const u32 b0 = server.allocateRd(0, 1);
    EXPECT_NE(a0, a1);
    EXPECT_EQ(a0, b0) << "counters are per (system, core)";
    for (int i = 0; i < 40; ++i)
        EXPECT_LT(server.allocateRd(0, 0), 32u);
}

TEST(RuntimeServer, OutOfOrderCollection)
{
    // Issue to two cores, collect in reverse completion order.
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(2));
    AcceleratorSoc soc(std::move(cfg), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    remote_ptr small = handle.malloc(64);
    remote_ptr big = handle.malloc(64 * 1024);
    handle.copy_to_fpga(small);
    handle.copy_to_fpga(big);
    auto slow = handle.invoke("MyAcceleratorSystem", "my_accel", 0,
                              {1, big.getFpgaAddr(), 16384});
    auto fast = handle.invoke("MyAcceleratorSystem", "my_accel", 1,
                              {1, small.getFpgaAddr(), 16});
    // Wait for the slow one first even though fast finishes earlier.
    slow.get();
    fast.get();
    SUCCEED();
}

TEST(RuntimeServer, IssuesIntoAFullResponseQueue)
{
    // Commands to one core whose responses nobody collects: once the
    // response path is full the core stops taking commands and
    // CMD_READY reads 0 until the host drains a response, so
    // sendCommand must drain responses while it waits. 24 commands stay
    // under the 32 rd tokens a core has.
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    soc.sim().setWatchdog(100'000);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    remote_ptr vec = handle.malloc(64);
    handle.copy_to_fpga(vec);
    std::vector<response_handle<u64>> pending;
    for (int i = 0; i < 24; ++i) {
        pending.push_back(handle.invoke("MyAcceleratorSystem", "my_accel",
                                        0, {1, vec.getFpgaAddr(), 16}));
    }
    for (response_handle<u64> &h : pending)
        h.get();
}

TEST(RuntimeServer, HungAcceleratorTimesOut)
{
    // A core that never responds: pollCommand consumed, no respond().
    SimulationPlatform platform;
    AcceleratorSystemConfig sys;
    sys.name = "BlackHole";
    sys.nCores = 1;
    struct SilentCore : AcceleratorCore
    {
        explicit SilentCore(const CoreContext &ctx)
            : AcceleratorCore(ctx)
        {}
        void
        tick() override
        {
            pollCommand(); // swallow and ignore
        }
    };
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<SilentCore>(ctx);
    };
    sys.commands.push_back(CommandSpec("void_call", {}));
    AcceleratorSoc soc(AcceleratorConfig(sys), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    auto h = handle.invoke("BlackHole", "void_call", 0, {});
    // Use a short timeout so the test is fast.
    EXPECT_THROW(
        server.waitFor({0, 0, 0}, /*timeout=*/20000), ConfigError);
    (void)h;
}

TEST(FpgaHandle, InvokeValidatesNames)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    EXPECT_THROW(handle.invoke("NoSystem", "my_accel", 0, {1, 0, 0}),
                 ConfigError);
    EXPECT_THROW(
        handle.invoke("MyAcceleratorSystem", "no_cmd", 0, {1, 0, 0}),
        ConfigError);
    EXPECT_THROW(
        handle.invoke("MyAcceleratorSystem", "my_accel", 7,
                      {1, 0, 0}),
        ConfigError);
}

TEST(FpgaHandle, MallocFreeCycle)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg(VecAddCore::systemConfig(1));
    AcceleratorSoc soc(std::move(cfg), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    remote_ptr a = handle.malloc(4096);
    const u64 allocated = server.allocator().bytesAllocated();
    EXPECT_GE(allocated, 4096u);
    handle.free(a);
    EXPECT_EQ(server.allocator().bytesAllocated(), allocated - 4096);
}

TEST(RemotePtr, OffsetSharesHostBuffer)
{
    remote_ptr base(0x1000, 256);
    base.getHostAddr()[100] = 42;
    remote_ptr view = base.offset(100);
    EXPECT_EQ(view.getFpgaAddr(), 0x1064u);
    EXPECT_EQ(view.size(), 156u);
    EXPECT_EQ(view.getHostAddr()[0], 42);
    view.getHostAddr()[1] = 7;
    EXPECT_EQ(base.getHostAddr()[101], 7);
}

} // namespace
} // namespace beethoven
