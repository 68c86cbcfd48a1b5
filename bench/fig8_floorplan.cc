/**
 * @file
 * Regenerates Fig. 8: the floorplan of the multi-core A3 accelerator
 * across the VU9P's three SLRs, plus the Vivado-style placement
 * constraint file Beethoven emits ("Beethoven produces constraint
 * files that enforce the placement of all components onto the
 * intended SLRs").
 */

#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "accel/a3/a3_core.h"
#include "common/bench_cli.h"
#include "platform/aws_f1.h"

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

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli(argc, argv);
    setInformEnabled(false);
    AwsF1Platform platform;
    const unsigned n_cores = maxA3Cores(platform);
    AcceleratorSoc soc(AcceleratorConfig(A3Core::systemConfig(n_cores)),
                       platform);
    cli.instrument(soc.sim(), "floorplan");

    const auto slrs = soc.coreSlrs("A3System");
    std::vector<std::vector<unsigned>> by_slr(
        soc.floorplan().numSlrs());
    for (unsigned c = 0; c < slrs.size(); ++c)
        by_slr[slrs[c]].push_back(c);

    std::printf("# Fig. 8 — Floorplan for the %u-core A3 accelerator "
                "(VU9P / AWS F1)\n\n",
                n_cores);
    // The paper draws SLR2 | SLR1 | SLR0 left to right.
    for (int s = static_cast<int>(by_slr.size()) - 1; s >= 0; --s) {
        std::printf("+---------------- %s ----------------+\n",
                    soc.floorplan().slr(s).name.c_str());
        std::printf("| cores:");
        for (unsigned c : by_slr[s])
            std::printf(" %2u", c);
        std::printf("\n");
        const char *extras = "";
        if (soc.floorplan().slr(s).hasHostInterface)
            extras = "| shell: host (PCIe MMIO/DMA)";
        else if (soc.floorplan().slr(s).hasMemoryInterface)
            extras = "| shell: DDR controller";
        std::printf("%s\n", extras);
        std::printf("| CLB %4.1f%%  BRAM %4.1f%%  URAM %4.1f%%\n",
                    100 * soc.floorplan().clbUtilization(s),
                    100 * soc.floorplan().bramUtilization(s),
                    100 * soc.floorplan().uramUtilization(s));
        std::printf("+--------------------------------------+\n");
    }

    std::printf("\n# Beethoven-emitted placement constraints:\n");
    std::ostringstream constraints;
    soc.floorplan().emitConstraints(constraints);
    std::cout << constraints.str();

    std::printf("\n# Shape check (paper, Fig. 8): cores spread over "
                "all three SLRs, with more cores on the\n"
                "# shell-free SLR2 (\"the shell consumed significant "
                "resources only on SLR0/1\").\n");
    cli.recordStats("floorplan", soc.sim());
    return cli.finish();
}
