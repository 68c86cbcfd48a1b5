/**
 * @file
 * Offline bottleneck analyzer for --stats-json exports.
 *
 * Usage: bottleneck_report [--top=N] [--json=FILE] stats.json
 *
 * Reads the stats file a bench wrote with --stats-json=, ranks every
 * stall-instrumented module as a cycle sink (busiest first, ties by
 * attributed stall), and prints one table per recorded run. With
 * --json=FILE the full per-class breakdown and shares are written as a
 * machine-readable report.
 *
 * Exit status: 0 on success, 1 when the stats file contains no
 * stall-instrumented modules at all, 2 on usage/IO/parse errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "base/decimal.h"
#include "base/json.h"
#include "base/log.h"
#include "trace/bottleneck.h"

using namespace beethoven;

int
main(int argc, char **argv)
{
    std::size_t top_n = 5;
    std::string json_path;
    std::string stats_path;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--top=", 6) == 0) {
            const std::optional<u64> n = parseDecimal(arg + 6);
            if (!n) {
                std::fprintf(stderr,
                             "bad --top value '%s' (expected a 64-bit "
                             "decimal count)\n",
                             arg + 6);
                return 2;
            }
            top_n = static_cast<std::size_t>(*n);
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            json_path = arg + 7;
        } else if (stats_path.empty()) {
            stats_path = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg);
            return 2;
        }
    }
    if (stats_path.empty()) {
        std::fprintf(stderr, "usage: bottleneck_report [--top=N] "
                             "[--json=FILE] stats.json\n");
        return 2;
    }

    std::ifstream f(stats_path);
    if (!f) {
        std::fprintf(stderr, "%s: cannot open\n", stats_path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << f.rdbuf();

    std::vector<RunStallReport> runs;
    try {
        runs = analyzeStallStats(parseJson(buf.str()));
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", stats_path.c_str(), e.what());
        return 2;
    }

    writeBottleneckTable(std::cout, runs, top_n);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "%s: cannot open for writing\n",
                         json_path.c_str());
            return 2;
        }
        writeBottleneckJson(out, runs);
    }

    bool any_modules = false;
    for (const RunStallReport &run : runs)
        any_modules |= !run.modules.empty();
    if (!any_modules) {
        std::fprintf(stderr,
                     "%s: no stall-instrumented modules found (was the "
                     "bench built with stall accounting?)\n",
                     stats_path.c_str());
        return 1;
    }
    return 0;
}
