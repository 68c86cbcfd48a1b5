/**
 * @file
 * Regenerates Fig. 4: "Performance of Memcpy microbenchmarks on an AWS
 * F1 FPGA platform" — achieved copy bandwidth for four methodologies:
 *
 *   HLS              16-beat bursts, all transactions on one AXI ID
 *   Pure-HDL         64-beat bursts, one transaction per ID, 1 ID
 *   Beethoven        config-driven Reader/Writer with TLP (split
 *                    transactions across distinct AXI IDs)
 *   Beethoven No-TLP same core, single AXI ID
 *
 * Also reproduces the paper's 16-beat control experiment: "we compiled
 * a Beethoven memcpy implementation with 16-beat bursts and found no
 * degradation."
 *
 * Expected shape (Section III-A): pure-HDL, Beethoven and Beethoven
 * No-TLP perform similarly (HDL ahead by a few percent); HLS is
 * clearly lower; Beethoven@16-beat tracks Beethoven@64-beat.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "accel/memcpy_core.h"
#include "base/log.h"
#include "baselines/raw_memcpy.h"
#include "common/bench_cli.h"
#include "platform/aws_f1.h"
#include "runtime/fpga_handle.h"
#include "verify/invariants.h"

using namespace beethoven;

namespace
{

/** Device-side kernel cycles for one Beethoven-configured copy. */
Cycle
beethovenCopyCycles(const MemcpyCore::Variant &variant, u64 len,
                    BenchCli &cli, const std::string &label)
{
    AwsF1Platform platform;
    AcceleratorConfig cfg(MemcpyCore::systemConfig(1, variant));
    AcceleratorSoc soc(std::move(cfg), platform);
    SocInvariants invariants(soc);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    cli.instrument(soc.sim(), label);

    remote_ptr src = handle.malloc(len);
    remote_ptr dst = handle.malloc(len);
    for (u64 i = 0; i < len; ++i)
        src.getHostAddr()[i] = static_cast<u8>(i);
    handle.copy_to_fpga(src);
    handle
        .invoke("MemcpySystem", "do_memcpy", 0,
                {src.getFpgaAddr(), dst.getFpgaAddr(), len})
        .get();
    auto &core =
        static_cast<MemcpyCore &>(soc.core("MemcpySystem", 0));
    invariants.checkFinal();
    cli.recordStats(label, soc.sim());
    return core.lastKernelCycles();
}

/** Device-side cycles for a raw-AXI (HLS / pure-HDL model) copy. */
Cycle
rawCopyCycles(const RawAxiMemcpy::Params &params, u64 len, BenchCli &cli,
              const std::string &label)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.axi = AwsF1Platform().memoryConfig();
    cfg.timing = AwsF1Platform().dramTiming();
    DramController ctrl(sim, "ddr", cfg, mem);
    RawAxiMemcpy engine(sim, "memcpy", params, ctrl);
    cli.instrument(sim, label);
    engine.start(0x100000, 0x4000000, len);
    const Cycle start = sim.cycle();
    if (!sim.runUntil([&] { return engine.done(); }, 100'000'000ULL))
        fatal("raw copy did not complete");
    cli.recordStats(label, sim);
    return sim.cycle() - start;
}

double
gbps(u64 len, Cycle cycles, double clock_mhz)
{
    // Copy bandwidth counts the payload once (bytes copied per second).
    return static_cast<double>(len) / cycles * clock_mhz * 1e6 / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv);
    setInformEnabled(false);
    const double f1_mhz = AwsF1Platform().clockMHz();
    // The HLS kernel compiles at 500 MHz but is "performance-limited by
    // the 250MHz DDR controller frequency" — its cycle counts are
    // controller cycles, so it reports at the controller clock too.

    RawAxiMemcpy::Params hls;
    hls.burstBeats = 16;
    hls.maxInflightReads = 4;
    hls.maxInflightWrites = 4;
    hls.distinctIds = false;

    RawAxiMemcpy::Params hdl;
    hdl.burstBeats = 64;
    hdl.maxInflightReads = 1;
    hdl.maxInflightWrites = 1;
    hdl.distinctIds = false;

    MemcpyCore::Variant tlp; // 16-beat transactions across AXI IDs
    MemcpyCore::Variant no_tlp;
    no_tlp.useTlp = false;
    no_tlp.burstBeats = 64;
    MemcpyCore::Variant tlp64;
    tlp64.burstBeats = 64;

    std::printf("# Fig. 4 — Memcpy bandwidth on AWS F1 (GB/s, device-"
                "side kernel time @%0.0f MHz)\n",
                f1_mhz);
    std::printf("%10s %10s %10s %12s %14s %16s\n", "size", "HLS",
                "Pure-HDL", "Beethoven", "Bthvn-NoTLP", "Bthvn-16beat");

    const std::vector<u64> sizes =
        cli.quick() ? std::vector<u64>{4096, 16384}
                    : std::vector<u64>{4096,   16384,   65536,
                                       262144, 1048576, 4194304};
    for (u64 len : sizes) {
        const std::string kb = std::to_string(len / 1024) + "KB";
        const Cycle c_hls = rawCopyCycles(hls, len, cli, "hls-" + kb);
        const Cycle c_hdl = rawCopyCycles(hdl, len, cli, "hdl-" + kb);
        const Cycle c_tlp64 =
            beethovenCopyCycles(tlp64, len, cli, "beethoven-" + kb);
        const Cycle c_notlp =
            beethovenCopyCycles(no_tlp, len, cli, "no-tlp-" + kb);
        const Cycle c_tlp16 =
            beethovenCopyCycles(tlp, len, cli, "tlp16-" + kb);
        std::printf("%8lluKB %10.2f %10.2f %12.2f %14.2f %16.2f\n",
                    static_cast<unsigned long long>(len / 1024),
                    gbps(len, c_hls, f1_mhz), gbps(len, c_hdl, f1_mhz),
                    gbps(len, c_tlp64, f1_mhz),
                    gbps(len, c_notlp, f1_mhz),
                    gbps(len, c_tlp16, f1_mhz));
    }

    std::printf("\n# Shape check (paper, Section III-A): pure-HDL ~7%% "
                "above Beethoven; HLS clearly lower;\n# Beethoven "
                "16-beat shows no degradation vs 64-beat.\n");
    return cli.finish();
}
