/**
 * @file
 * Regenerates Table I: the MachSuite benchmarks selected for the
 * evaluation, with their complexity, data sizes and available loop
 * parallelism.
 */

#include <cstdio>

#include "accel/machsuite/workloads.h"
#include "common/bench_cli.h"

int
main(int argc, char **argv)
{
    // Static table, no Simulator to cli.instrument(); --perf-json
    // still records wall time and peak RSS (sim_cycles stays 0).
    beethoven::BenchCli cli(argc, argv);
    using namespace beethoven::machsuite;
    std::printf("# Table I — MachSuite benchmarks selected for the "
                "evaluation\n");
    std::printf("%-10s | %-38s | %-16s | %s\n", "Benchmark",
                "Description", "Data Size", "Parallelism");
    std::printf("%.10s-+-%.38s-+-%.16s-+-%.11s\n",
                "----------------------------------------",
                "----------------------------------------",
                "----------------------------------------",
                "----------------------------------------");
    for (const auto &w : table1Workloads()) {
        std::printf("%-10s | %-38s | %-16s | %s\n", w.name.c_str(),
                    w.complexity.c_str(), w.dataSize.c_str(),
                    parallelismName(w.parallelism));
    }
    return cli.finish();
}
