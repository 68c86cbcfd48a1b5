/**
 * @file
 * Regenerates Table III: throughput, energy-per-operation and average
 * power for the BERT attention workload on four platforms:
 *
 *   CPU         — FP32 attention *actually executed and timed* on the
 *                 build host (paper: 12-core i7-12700K, 84.8K ops/s at
 *                 75 W; see DESIGN.md substitution table);
 *   GPU         — analytic reference pinned to the paper's measured
 *                 NVIDIA 3090 numbers (5.0M ops/s, 320 W);
 *   Beethoven   — the multi-core FPGA design, fully simulated at
 *                 250 MHz with power from the resource-based model;
 *   1-Core ASIC — the same A3 core elaborated on the ASAP7 platform at
 *                 1 GHz (the original publication's ideal per-core
 *                 throughput was 2.94M ops/s).
 */

#include <cstdio>
#include <cstring>

#include "accel/a3/a3_core.h"
#include "base/rng.h"
#include "baselines/attention_sw.h"
#include "common/bench_cli.h"
#include "platform/asap7.h"
#include "platform/aws_f1.h"
#include "power/power.h"
#include "runtime/fpga_handle.h"

using namespace beethoven;
using namespace beethoven::a3;

namespace
{

unsigned
maxA3Cores(const Platform &platform)
{
    unsigned lo = 1, hi = 64;
    auto fits = [&](unsigned n) {
        try {
            AcceleratorSoc soc(AcceleratorConfig(A3Core::systemConfig(n)),
                               platform);
            return true;
        } catch (const ConfigError &) {
            return false;
        }
    };
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/** Simulated attention throughput (ops/s) on @p platform. */
double
simulatedOpsPerSecond(const Platform &platform, unsigned n_cores,
                      unsigned queries_per_core, double *out_watts,
                      BenchCli &cli, const char *label)
{
    AcceleratorSoc soc(AcceleratorConfig(A3Core::systemConfig(n_cores)),
                       platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    cli.instrument(soc.sim(), label);

    const unsigned n_keys = 320;
    Rng rng(17);
    remote_ptr keys = handle.malloc(n_keys * 64);
    remote_ptr values = handle.malloc(n_keys * 64);
    for (std::size_t i = 0; i < n_keys * 64ull; ++i) {
        keys.getHostAddr()[i] = static_cast<u8>(rng.next());
        values.getHostAddr()[i] = static_cast<u8>(rng.next());
    }
    handle.copy_to_fpga(keys);
    handle.copy_to_fpga(values);

    std::vector<response_handle<u64>> loads;
    for (unsigned c = 0; c < n_cores; ++c) {
        loads.push_back(handle.invoke(
            "A3System", "load_matrices", c,
            {keys.getFpgaAddr(), values.getFpgaAddr(), n_keys}));
    }
    for (auto &l : loads)
        l.get();

    std::vector<remote_ptr> qbufs, obufs;
    for (unsigned c = 0; c < n_cores; ++c) {
        remote_ptr q = handle.malloc(queries_per_core * 64);
        remote_ptr o = handle.malloc(queries_per_core * 64);
        for (std::size_t i = 0; i < queries_per_core * 64ull; ++i)
            q.getHostAddr()[i] = static_cast<u8>(rng.next());
        handle.copy_to_fpga(q);
        qbufs.push_back(q);
        obufs.push_back(o);
    }

    // Scope the power run record to the same attend window the
    // throughput is computed over (matrix-load DMA excluded), so the
    // measured energy/op shares a basis with the static estimate.
    if (PowerMeter *pm = cli.powerMeter())
        pm->markRunStart(soc.sim());
    const Cycle start = soc.sim().cycle();
    std::vector<response_handle<u64>> batches;
    for (unsigned c = 0; c < n_cores; ++c) {
        batches.push_back(handle.invoke(
            "A3System", "attend", c,
            {qbufs[c].getFpgaAddr(), obufs[c].getFpgaAddr(),
             queries_per_core}));
    }
    for (auto &b : batches)
        b.get();
    const Cycle wall = soc.sim().cycle() - start;

    if (out_watts != nullptr) {
        const ResourceVec design =
            soc.floorplan().totalUsed() + soc.floorplan().totalShell();
        *out_watts = platform.powerModel().watts(design);
    }
    const double total_ops = double(queries_per_core) * n_cores;
    cli.recordStats(label, soc.sim(), total_ops);
    return total_ops * platform.clockMHz() * 1e6 / double(wall);
}

void
printRow(const char *name, double ops, double watts)
{
    std::printf("%-14s %14.3g %12.2f %12.1f\n", name, ops,
                watts / ops * 1e6, watts);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv);
    setInformEnabled(false);

    std::printf("# Table III — BERT attention (320 keys, 64-dim): "
                "throughput / energy / power\n\n");
    std::printf("%-14s %14s %12s %12s\n", "", "Thrpt (ops/s)",
                "E/op (uJ)", "Power (W)");

    // CPU: measured on this host, single thread (documented
    // substitution for the paper's i7-12700K).
    const double cpu_ops = measureCpuAttentionOpsPerSecond(320, 64);
    printRow("CPU (host)", cpu_ops, 75.0);
    printRow("CPU (paper)", 84.8e3, 75.0);

    // GPU: the paper's measured 3090 reference. Also recorded into the
    // --power-json report so Table III's efficiency ratios are
    // regression-testable from the file alone (tools/power_report).
    printRow("GPU (paper)", 5.0e6, 320.0);
    cli.addPowerReference("GPU (paper)", 320.0, 5.0e6);

    // Beethoven: full multi-core FPGA simulation.
    AwsF1Platform f1;
    const unsigned n_cores = maxA3Cores(f1);
    double f1_watts = 0.0;
    const unsigned queries = cli.quick() ? 48 : 192;
    const double f1_ops =
        simulatedOpsPerSecond(f1, n_cores, queries, &f1_watts, cli, "f1");
    char label[64];
    std::snprintf(label, sizeof(label), "Beethoven(%uc)", n_cores);
    printRow(label, f1_ops, f1_watts);

    // 1-core ASIC at 1 GHz on ASAP7.
    Asap7Platform asic;
    const double asic_ops =
        simulatedOpsPerSecond(asic, 1, queries, nullptr, cli, "asap7");
    std::printf("%-14s %14.3g %12s %12s\n", "1-Core ASIC", asic_ops,
                "-", "-");
    std::printf("%-14s %14.3g %12s %12s   (paper, @1 GHz)\n",
                "1-Core ASIC*", 2.94e6, "-", "-");

    std::printf("\nBeethoven vs GPU: %.1fx throughput, %.0fx lower "
                "energy/op (paper: 3.3x, 34x)\n",
                f1_ops / 5.0e6,
                (320.0 / 5.0e6) / (f1_watts / f1_ops));
    if (const PowerMeter *pm = cli.powerMeter()) {
        // Measured (activity-driven) energy/op next to the static
        // estimate above; the coefficients are calibrated so the two
        // ratios track each other (shape preservation, DESIGN.md §4f).
        const PowerRunRecord *f1_run = pm->report().find("f1");
        if (f1_run != nullptr && f1_run->energyPerOpUj() > 0.0) {
            const double gpu_uj = 320.0 / 5.0e6 * 1e6;
            std::printf("Measured energy/op: %.3f uJ (avg %.2f W); "
                        "vs GPU: %.0fx lower\n",
                        f1_run->energyPerOpUj(), f1_run->avgWatts,
                        gpu_uj / f1_run->energyPerOpUj());
        }
    }
    std::printf("\n# Shape check (paper, Table III): the multi-core "
                "FPGA design beats the GPU on throughput\n"
                "# by ~3x and on energy/op by >1 order of magnitude; "
                "the single ASIC core lands near the\n"
                "# original A3 publication's 2.94M ops/s.\n");
    return cli.finish();
}
