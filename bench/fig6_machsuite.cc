/**
 * @file
 * Regenerates Fig. 6: MachSuite speedups over Vitis HLS for Spatial,
 * Beethoven (Ideal) and Beethoven (Measured), with the instantiated
 * core count for each Beethoven accelerator.
 *
 * Methodology mirrors Section III-B:
 *  - Vitis HLS / Spatial come from the documented tool-flow models
 *    (baselines/toolflow_models.h);
 *  - Beethoven(Ideal) = measured single-core throughput x core count;
 *  - Beethoven(Measured) = wall-clock multi-core throughput through
 *    the full runtime (MMIO dispatch, response polling, shared memory
 *    system), so host-side contention shows up exactly as in the
 *    paper: "the difference between ideal and measured throughput is
 *    greatest when the kernel's latency is low".
 *
 * Core counts are what the floorplanner fits on the VU9P (the paper's
 * BRAM/LUT limits); a per-kernel simulation cap keeps host run time
 * tractable and is reported alongside the device capacity.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "accel/machsuite/gemm.h"
#include "accel/machsuite/md_knn.h"
#include "accel/machsuite/nw.h"
#include "accel/machsuite/stencil.h"
#include "base/rng.h"
#include "baselines/toolflow_models.h"
#include "common/bench_cli.h"
#include "common/fit_search.h"
#include "platform/aws_f1.h"
#include "runtime/fpga_handle.h"
#include "verify/invariants.h"

using namespace beethoven;
using namespace beethoven::machsuite;

namespace
{

struct KernelDriver
{
    std::string name;
    unsigned simCoreCap;
    unsigned opsPerCore;
    std::function<AcceleratorSystemConfig(unsigned)> makeConfig;
    std::string systemName;
    /** Allocate & fill this core's buffers; returns invoke args. */
    std::function<std::vector<u64>(fpga_handle_t &, unsigned)> prepare;
    std::string commandName;
    std::function<Cycle(AcceleratorCore &)> kernelCycles;
};

struct Result
{
    double hlsOps;
    double spatialOps;
    double idealOps;
    double measuredOps;
    unsigned coresSimulated;
    unsigned coresFit;
};

Result
runKernel(const KernelDriver &driver,
          const baselines::ToolflowPoint &hls,
          const baselines::ToolflowPoint &spatial, BenchCli &cli)
{
    AwsF1Platform platform;
    // MachSuite Beethoven designs run at the default 125 MHz clock
    // (Section III-B), unlike the 250 MHz memcpy study.
    platform.setClockMHz(125);
    const unsigned fit = maxCoresThatFit(driver.makeConfig, platform, 256);
    const unsigned n_cores =
        std::min(fit, cli.quick() ? std::min(driver.simCoreCap, 4u)
                                  : driver.simCoreCap);

    AcceleratorSoc soc(AcceleratorConfig(driver.makeConfig(n_cores)),
                       platform);
    SocInvariants invariants(soc);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    cli.instrument(soc.sim(), driver.name);

    // Per-core operand buffers.
    std::vector<std::vector<u64>> args;
    for (unsigned c = 0; c < n_cores; ++c)
        args.push_back(driver.prepare(handle, c));

    // Single-core throughput (device-side kernel time).
    handle.invoke(driver.systemName, driver.commandName, 0, args[0])
        .get();
    const Cycle single_cycles =
        driver.kernelCycles(soc.core(driver.systemName, 0));
    const double clock_hz = platform.clockMHz() * 1e6;
    const double single_ops = clock_hz / double(single_cycles);

    // Multi-core measured throughput: wall clock over the full stack.
    const Cycle start = soc.sim().cycle();
    std::vector<response_handle<u64>> pending;
    for (unsigned op = 0; op < driver.opsPerCore; ++op) {
        for (unsigned c = 0; c < n_cores; ++c) {
            pending.push_back(handle.invoke(
                driver.systemName, driver.commandName, c, args[c]));
        }
    }
    for (auto &h : pending)
        h.get();
    const Cycle wall = soc.sim().cycle() - start;
    const double total_ops = double(driver.opsPerCore) * n_cores;

    Result r;
    r.hlsOps = hls.opsPerSecond();
    r.spatialOps = spatial.opsPerSecond();
    r.idealOps = single_ops * n_cores;
    r.measuredOps = total_ops * clock_hz / double(wall);
    r.coresSimulated = n_cores;
    r.coresFit = fit;
    invariants.checkFinal();
    cli.recordStats(driver.name, soc.sim());
    return r;
}

std::vector<u64>
prepGemm(fpga_handle_t &handle, unsigned seed)
{
    const unsigned n = 256;
    Rng rng(seed + 1);
    remote_ptr a = handle.malloc(n * n * 4);
    remote_ptr bt = handle.malloc(n * n * 4);
    remote_ptr c = handle.malloc(n * n * 4);
    auto *pa = a.as<i32>();
    auto *pbt = bt.as<i32>();
    for (unsigned i = 0; i < n * n; ++i) {
        pa[i] = static_cast<i32>(rng.nextRange(0, 200)) - 100;
        pbt[i] = static_cast<i32>(rng.nextRange(0, 200)) - 100;
    }
    handle.copy_to_fpga(a);
    handle.copy_to_fpga(bt);
    return {a.getFpgaAddr(), bt.getFpgaAddr(), c.getFpgaAddr(), n};
}

std::vector<u64>
prepNw(fpga_handle_t &handle, unsigned seed)
{
    const unsigned n = 256;
    Rng rng(seed + 11);
    remote_ptr a = handle.malloc(n);
    remote_ptr b = handle.malloc(n);
    remote_ptr out = handle.malloc((n + 1) * 4);
    for (unsigned i = 0; i < n; ++i) {
        a.getHostAddr()[i] = "ACGT"[rng.nextBounded(4)];
        b.getHostAddr()[i] = "ACGT"[rng.nextBounded(4)];
    }
    handle.copy_to_fpga(a);
    handle.copy_to_fpga(b);
    return {a.getFpgaAddr(), b.getFpgaAddr(), out.getFpgaAddr(), n};
}

std::vector<u64>
prepStencil2d(fpga_handle_t &handle, unsigned seed)
{
    const unsigned n = 256;
    Rng rng(seed + 21);
    remote_ptr in = handle.malloc(n * n * 4);
    remote_ptr out = handle.malloc(n * n * 4);
    auto *p = in.as<i32>();
    for (unsigned i = 0; i < n * n; ++i)
        p[i] = static_cast<i32>(rng.nextRange(0, 100));
    handle.copy_to_fpga(in);
    return {in.getFpgaAddr(), out.getFpgaAddr(), n, n};
}

std::vector<u64>
prepStencil3d(fpga_handle_t &handle, unsigned seed)
{
    const unsigned n = 32;
    Rng rng(seed + 31);
    remote_ptr in = handle.malloc(n * n * n * 4);
    remote_ptr out = handle.malloc(n * n * n * 4);
    auto *p = in.as<i32>();
    for (unsigned i = 0; i < n * n * n; ++i)
        p[i] = static_cast<i32>(rng.nextRange(0, 100));
    handle.copy_to_fpga(in);
    return {in.getFpgaAddr(), out.getFpgaAddr(), n};
}

std::vector<u64>
prepMdKnn(fpga_handle_t &handle, unsigned seed)
{
    const unsigned n = 1024, k = 32;
    Rng rng(seed + 41);
    remote_ptr pos = handle.malloc(n * 32);
    remote_ptr nl = handle.malloc(n * k * 4);
    remote_ptr force = handle.malloc(n * 32);
    for (unsigned i = 0; i < n; ++i) {
        double xyz[3];
        for (double &v : xyz)
            v = 1.0 + rng.nextDouble() * 10.0;
        std::memcpy(pos.getHostAddr() + i * 32, xyz, 24);
    }
    auto *pnl = nl.as<i32>();
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < k; ++j) {
            u32 nb;
            do {
                nb = static_cast<u32>(rng.nextBounded(n));
            } while (nb == i);
            pnl[i * k + j] = static_cast<i32>(nb);
        }
    }
    handle.copy_to_fpga(pos);
    handle.copy_to_fpga(nl);
    return {pos.getFpgaAddr(), nl.getFpgaAddr(), force.getFpgaAddr(),
            n, k};
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv);
    setInformEnabled(false);

    std::vector<KernelDriver> drivers;
    drivers.push_back(
        {"GeMM", 16, 1,
         [](unsigned nc) { return GemmCore::systemConfig(nc); },
         "GemmSystem", prepGemm, "gemm", [](AcceleratorCore &c) {
             return static_cast<GemmCore &>(c).lastKernelCycles();
         }});
    drivers.push_back(
        {"NW", 32, 2,
         [](unsigned nc) { return NwCore::systemConfig(nc); },
         "NwSystem", prepNw, "nw", [](AcceleratorCore &c) {
             return static_cast<NwCore &>(c).lastKernelCycles();
         }});
    drivers.push_back(
        {"Stencil2D", 28, 1,
         [](unsigned nc) { return Stencil2dCore::systemConfig(nc); },
         "Stencil2dSystem", prepStencil2d, "stencil2d",
         [](AcceleratorCore &c) {
             return static_cast<Stencil2dCore &>(c).lastKernelCycles();
         }});
    drivers.push_back(
        {"Stencil3D", 24, 2,
         [](unsigned nc) { return Stencil3dCore::systemConfig(nc); },
         "Stencil3dSystem", prepStencil3d, "stencil3d",
         [](AcceleratorCore &c) {
             return static_cast<Stencil3dCore &>(c).lastKernelCycles();
         }});
    drivers.push_back(
        {"MD-KNN", 16, 2,
         [](unsigned nc) { return MdKnnCore::systemConfig(nc); },
         "MdKnnSystem", prepMdKnn, "md_knn", [](AcceleratorCore &c) {
             return static_cast<MdKnnCore &>(c).lastKernelCycles();
         }});

    const struct { unsigned n, k; } sizes[] = {
        {256, 0}, {256, 0}, {256, 0}, {32, 0}, {1024, 32}};

    std::printf("# Fig. 6 — MachSuite speedup normalized to Vitis HLS "
                "(AWS F1)\n");
    std::printf("%-10s %9s %9s %13s %16s %7s %9s\n", "kernel",
                "HLS", "Spatial", "Bthvn(Ideal)", "Bthvn(Measured)",
                "cores", "fit-limit");

    for (std::size_t i = 0; i < drivers.size(); ++i) {
        const auto hls = baselines::vitisHlsModel(drivers[i].name,
                                                  sizes[i].n,
                                                  sizes[i].k);
        const auto spatial = baselines::spatialModel(drivers[i].name,
                                                     sizes[i].n,
                                                     sizes[i].k);
        const Result r = runKernel(drivers[i], hls, spatial, cli);
        std::printf("%-10s %9.2f %9.2f %13.2f %16.2f %7u %9u\n",
                    drivers[i].name.c_str(), 1.0,
                    r.spatialOps / r.hlsOps, r.idealOps / r.hlsOps,
                    r.measuredOps / r.hlsOps, r.coresSimulated,
                    r.coresFit);
        std::fflush(stdout);
    }

    std::printf(
        "\n# Shape check (paper, Section III-B): Beethoven(Measured) "
        ">= baselines on every kernel;\n"
        "# NW single-core alone is ~2x the baselines; the "
        "ideal-vs-measured gap is largest for the\n"
        "# lowest-latency kernels (runtime-server dispatch "
        "contention).\n");
    return cli.finish();
}
