/**
 * @file
 * Offline analyzer for --power-json exports (schema beethoven-power-1).
 *
 * Usage: power_report [--top=N] power.json
 *
 * For every measured run: the run summary (joules, avg/peak watts,
 * static floor, energy-per-op and throughput-per-watt when the bench
 * reported an operation count), the per-SLR average power split, and
 * the top-N components ranked by energy. Reference rows (published
 * watts + throughput, e.g. Table III's GPU) are rendered last with the
 * efficiency ratio of every measured run that reported ops against
 * them — the paper's energy-per-op comparisons as live output.
 *
 * Exit status: 0 on success, 2 on usage/IO errors, 3 when the file
 * parses as JSON but is not a beethoven-power-1 report.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/decimal.h"
#include "base/json.h"
#include "base/log.h"
#include "power/power_json.h"

using namespace beethoven;

int
main(int argc, char **argv)
{
    std::size_t top_n = 8;
    std::string path;
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
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg);
            return 2;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr, "usage: power_report [--top=N] "
                             "power.json\n");
        return 2;
    }

    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << f.rdbuf();

    PowerReport report;
    try {
        report = parsePowerReport(parseJson(buf.str()));
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
        return 3;
    }

    std::vector<const PowerRunRecord *> refs;
    for (const PowerRunRecord &run : report.runs) {
        if (run.reference) {
            refs.push_back(&run);
            continue;
        }
        std::printf("== %s: %.6g J over %.4g cycles @ %.0f MHz ==\n",
                    run.label.c_str(), run.joules, run.cycles,
                    run.clockMhz);
        std::printf("  avg %.3f W  peak %.3f W  static floor %.3f W\n",
                    run.avgWatts, run.peakWatts, run.staticWatts);
        if (run.ops > 0.0) {
            const double secs = run.seconds();
            const double ops_per_sec =
                secs > 0.0 ? run.ops / secs : 0.0;
            std::printf("  %.4g ops: %.4f uJ/op, %.4g ops/s/W\n",
                        run.ops, run.energyPerOpUj(),
                        run.avgWatts > 0.0 ? ops_per_sec / run.avgWatts
                                           : 0.0);
        }
        if (!run.slrWatts.empty()) {
            std::printf("  per-SLR avg watts:");
            for (std::size_t s = 0; s < run.slrWatts.size(); ++s)
                std::printf(" slr%zu=%.3f", s, run.slrWatts[s]);
            std::printf("\n");
        }
        std::vector<const PowerComponentRecord *> comps;
        for (const PowerComponentRecord &c : run.components)
            comps.push_back(&c);
        std::sort(comps.begin(), comps.end(),
                  [](const PowerComponentRecord *a,
                     const PowerComponentRecord *b) {
                      return a->joules > b->joules;
                  });
        const std::size_t n = std::min(top_n, comps.size());
        std::printf("  %-28s %6s %12s %10s %10s\n", "component", "slr",
                    "joules", "avg W", "peak W");
        for (std::size_t i = 0; i < n; ++i) {
            const PowerComponentRecord &c = *comps[i];
            const double share =
                run.joules > 0.0 ? 100.0 * c.joules / run.joules : 0.0;
            std::printf("  %-28s %6u %12.6g %10.4f %10.4f  (%.1f%%)\n",
                        c.name.c_str(), c.slr, c.joules, c.avgWatts,
                        c.peakWatts, share);
        }
        if (comps.size() > n)
            std::printf("  ... %zu more components\n", comps.size() - n);
        std::printf("\n");
    }

    for (const PowerRunRecord *ref : refs) {
        std::printf("reference %s: %.1f W @ %.4g ops/s = %.4f uJ/op\n",
                    ref->label.c_str(), ref->avgWatts, ref->opsPerSec,
                    ref->energyPerOpUj());
        for (const PowerRunRecord &run : report.runs) {
            if (run.reference || run.ops <= 0.0)
                continue;
            const double run_uj = run.energyPerOpUj();
            if (run_uj <= 0.0 || ref->energyPerOpUj() <= 0.0)
                continue;
            std::printf("  %s: %.1fx lower energy/op\n",
                        run.label.c_str(),
                        ref->energyPerOpUj() / run_uj);
        }
    }
    return 0;
}
