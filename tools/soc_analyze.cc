/**
 * @file
 * soc_analyze — simulation-graph static analyzer CLI (DESIGN.md §5d).
 *
 * Where soc_lint checks the *configuration* before elaboration, this
 * tool elaborates the SoC (without running a single cycle), lowers the
 * simulator's registration record to the SimGraph IR, and proves the
 * event kernel's wake/sleep contract and livelock freedom (BTH10x).
 *
 * Usage:
 *   soc_analyze [--json] [--werror] [--list-codes] CASE.json
 *   soc_analyze [--json] [--werror] --preset=fig4|fig6
 *
 * CASE.json uses the soc_fuzz repro format; a nonzero
 * "plant_wake_violation" count suppresses that push-wake arming so the
 * analyzer's catch path is testable. The presets elaborate the paper's
 * Fig. 4 (memcpy on AWS F1) and Fig. 6 (4-core GEMM at 125 MHz)
 * compositions.
 *
 * Exit codes mirror soc_lint: 0 clean (warnings alone do not fail
 * without --werror), 2 blocking findings, 3 usage error or
 * malformed/unreadable input.
 */

#include <iostream>
#include <optional>
#include <string>

#include "accel/machsuite/gemm.h"
#include "accel/memcpy_core.h"
#include "analysis/analyze.h"
#include "base/log.h"
#include "core/soc.h"
#include "lint/diagnostic.h"
#include "platform/aws_f1.h"
#include "sim/graph_record.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"

using namespace beethoven;
using namespace beethoven::verify;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: soc_analyze [--json] [--werror] [--list-codes] "
          "CASE.json\n"
          "       soc_analyze [--json] [--werror] --preset=fig4|fig6\n"
          "\n"
          "  --json          emit the diagnostic report as a JSON "
          "document\n"
          "  --werror        treat warnings as blocking findings\n"
          "  --list-codes    print the analyzer's diagnostic codes and "
          "exit\n"
          "  --preset=NAME   analyze a built-in composition instead of "
          "a case\n"
          "                  file (fig4: memcpy on AWS F1; fig6: "
          "4-core GEMM)\n"
          "\n"
          "CASE.json uses the soc_fuzz repro format; a nonzero\n"
          "\"plant_wake_violation\" suppresses that push-wake arming "
          "so the\n"
          "planted bug must surface as BTH100.\n";
}

void
listCodes(std::ostream &os)
{
    // Only the analyzer's own layer; soc_lint --list-codes prints the
    // composition layers.
    for (const auto &info : lint::diagnosticRegistry()) {
        if (std::string(info.layer) != "graph")
            continue;
        os << info.code << "  " << lint::severityName(info.severity)
           << "  [" << info.layer << "] " << info.summary << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool as_json = false;
    bool werror = false;
    std::string path;
    std::string preset;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            as_json = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--list-codes") {
            listCodes(std::cout);
            return 0;
        } else if (arg.rfind("--preset=", 0) == 0) {
            preset = arg.substr(9);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "soc_analyze: unknown argument '" << arg
                      << "'\n";
            usage(std::cerr);
            return 3;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::cerr << "soc_analyze: more than one input file\n";
            usage(std::cerr);
            return 3;
        }
    }
    if (path.empty() == preset.empty()) {
        std::cerr << "soc_analyze: need exactly one of CASE.json or "
                     "--preset\n";
        usage(std::cerr);
        return 3;
    }

    // Elaborate with constructor-tail validation deferred: this tool
    // wants the full DiagnosticReport (and must survive deliberately
    // planted violations), not the constructor's fatal().
    analysis::ScopedDeferGraphValidation defer;

    std::optional<FuzzPlatform> fuzz_platform;
    std::optional<AwsF1Platform> aws_platform;
    std::optional<AcceleratorSoc> soc;
    std::string label = path.empty() ? "--preset=" + preset : path;
    try {
        if (!preset.empty()) {
            AcceleratorConfig cfg;
            aws_platform.emplace();
            if (preset == "fig4") {
                cfg.systems.push_back(MemcpyCore::systemConfig(
                    1, MemcpyCore::Variant{}));
            } else if (preset == "fig6") {
                aws_platform->setClockMHz(125.0);
                cfg.systems.push_back(machsuite::GemmCore::systemConfig(4));
            } else {
                std::cerr << "soc_analyze: unknown preset '" << preset
                          << "'\n";
                return 3;
            }
            soc.emplace(std::move(cfg), *aws_platform);
        } else {
            const FuzzCase c = loadReproFile(path);
            if (c.plantWakeViolation != 0)
                plantMissingPushWake(c.plantWakeViolation);
            fuzz_platform.emplace(c.platform);
            soc.emplace(buildAcceleratorConfig(c), *fuzz_platform);
            plantMissingPushWake(0);
        }
    } catch (const ConfigError &e) {
        plantMissingPushWake(0);
        std::cerr << "soc_analyze: " << e.what() << "\n";
        return 3;
    }

    const lint::DiagnosticReport report = soc->analyzeGraph();

    if (as_json) {
        std::cout << "{\n\"report\": " << report.toJson() << "}\n";
    } else {
        std::cout << report.format();
        std::cout << label << ": " << report.errorCount()
                  << " error(s), " << report.warningCount()
                  << " warning(s)\n";
    }

    const bool blocking =
        report.hasErrors() || (werror && report.warningCount() > 0);
    return blocking ? 2 : 0;
}
