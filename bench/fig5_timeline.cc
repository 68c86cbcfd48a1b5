/**
 * @file
 * Regenerates Fig. 5: annotated AXI transaction timelines for a 4 KB
 * memcpy under each methodology:
 *
 *   (a) HLS       — 4 requests @ 16 beats, all on one AXI ID
 *   (b) Beethoven — 4 requests @ 16 beats on distinct AXI IDs
 *   (c) Hand-HDL  — 1 request @ 64 beats
 *
 * The rendered rows show request acceptance (A), data beats (=) and
 * completion (#) against a shared cycle axis. The paper's observations
 * to verify: HLS transactions on one ID serialize (each request's data
 * starts only after the previous completes); Beethoven's distinct-ID
 * transactions overlap and its writes finish early; the HDL variant
 * moves the same bytes in one long burst per direction.
 */

#include <cstdio>
#include <iostream>

#include "accel/memcpy_core.h"
#include "base/log.h"
#include "baselines/raw_memcpy.h"
#include "common/bench_cli.h"
#include "platform/aws_f1.h"
#include "runtime/fpga_handle.h"

using namespace beethoven;

namespace
{

void
runRaw(const char *title, const RawAxiMemcpy::Params &params,
       BenchCli &cli, const char *label)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.axi = AwsF1Platform().memoryConfig();
    cfg.timing = AwsF1Platform().dramTiming();
    DramController ctrl(sim, "ddr", cfg, mem);
    RawAxiMemcpy engine(sim, "memcpy", params, ctrl);
    cli.instrument(sim, label);

    // Pre-warm with a dummy copy so row state resembles steady
    // operation, then record the 4 KB copy of interest.
    engine.start(0x800000, 0x900000, 4096);
    sim.runUntil([&] { return engine.done(); }, 1'000'000ULL);

    ctrl.timeline().setEnabled(true);
    engine.start(0x100000, 0x400000, 4096);
    if (!sim.runUntil([&] { return engine.done(); }, 1'000'000ULL))
        fatal("copy did not complete");
    std::printf("\n%s\n", title);
    ctrl.timeline().render(std::cout, 100);
    cli.recordStats(label, sim);
}

void
runBeethoven(const char *title, const MemcpyCore::Variant &variant,
             BenchCli &cli, const char *label)
{
    AwsF1Platform platform;
    AcceleratorConfig cfg(MemcpyCore::systemConfig(1, variant));
    AcceleratorSoc soc(std::move(cfg), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    cli.instrument(soc.sim(), label);

    remote_ptr src = handle.malloc(4096);
    remote_ptr dst = handle.malloc(4096);
    for (u64 i = 0; i < 4096; ++i)
        src.getHostAddr()[i] = static_cast<u8>(i);
    handle.copy_to_fpga(src);

    soc.dram().timeline().setEnabled(true);
    handle
        .invoke("MemcpySystem", "do_memcpy", 0,
                {src.getFpgaAddr(), dst.getFpgaAddr(), 4096})
        .get();
    soc.dram().timeline().setEnabled(false);
    std::printf("\n%s\n", title);
    soc.dram().timeline().render(std::cout, 100);
    cli.recordStats(label, soc.sim());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv);
    setInformEnabled(false);

    RawAxiMemcpy::Params hls;
    hls.burstBeats = 16;
    hls.maxInflightReads = 4;
    hls.maxInflightWrites = 4;
    hls.distinctIds = false;
    runRaw("(a) HLS: 4 requests @ 16 beats, one AXI ID", hls, cli,
           "hls");

    MemcpyCore::Variant bthvn; // 16-beat transactions across AXI IDs
    runBeethoven("(b) Beethoven: 4 requests @ 16 beats, distinct AXI IDs",
                 bthvn, cli, "beethoven");

    RawAxiMemcpy::Params hdl;
    hdl.burstBeats = 64;
    hdl.maxInflightReads = 1;
    hdl.maxInflightWrites = 1;
    hdl.distinctIds = false;
    runRaw("(c) Hand-written RTL: 1 request @ 64 beats", hdl, cli,
           "hdl");

    std::printf("\n# Shape check (paper, Fig. 5): same-ID HLS "
                "transactions serialize; Beethoven's distinct-ID\n"
                "# transactions overlap and writes complete early; HDL "
                "uses one long burst per direction.\n");
    return cli.finish();
}
