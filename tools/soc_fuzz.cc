/**
 * @file
 * soc_fuzz — randomized SoC composition fuzzer (see DESIGN.md §5).
 *
 * Samples random-but-legal accelerator compositions, drives seeded
 * traffic against them with live invariants armed, and differential-
 * checks the results against the golden model. On failure it shrinks
 * the case to a minimal reproduction and writes a self-contained JSON
 * repro file.
 *
 * Usage:
 *   soc_fuzz [--seed=N] [--iterations=N] [--max-cycles=N]
 *            [--max-ops=N] [--repro-out=PATH] [--no-shrink]
 *            [--plant-violation] [--plant-lint-violation]
 *            [--differential] [--sim-kernel=tick|event]
 *            [--plant-lost-wake=N] [--plant-wake-violation=N]
 *            [--replay=PATH] [--verbose]
 *
 * Each case is elaborated once. The AcceleratorSoc constructor runs
 * the composition linter (src/lint/) and the graph analyzer
 * (src/analysis/), so a sampled case either of them rejects comes back
 * as a build-error failure: the sampler and a checker disagree. The
 * planted self-tests require that build error to name the planted
 * code: BTH003 for --plant-lint-violation, BTH100 for
 * --plant-wake-violation.
 *
 * Exit codes: 0 all iterations clean, 3 a failure was found (repro
 * written if --repro-out), 2 usage or IO error, or a planted
 * violation that was not caught.
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "base/decimal.h"
#include "base/log.h"
#include "verify/fuzz.h"
#include "verify/traffic.h"

using namespace beethoven;
using namespace beethoven::verify;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: soc_fuzz [--seed=N] [--iterations=N] [--max-cycles=N]\n"
          "                [--max-ops=N] [--repro-out=PATH] [--no-shrink]\n"
          "                [--plant-violation] [--plant-lint-violation]\n"
          "                [--plant-power-violation]\n"
          "                [--differential]\n"
          "                [--sim-kernel=tick|event]\n"
          "                [--plant-lost-wake=N]\n"
          "                [--plant-wake-violation=N]\n"
          "                [--replay=PATH] [--verbose]\n"
          "\n"
          "  --seed=N            base RNG seed (default 1)\n"
          "  --iterations=N      cases to run (default 25)\n"
          "  --max-cycles=N      per-case simulated-cycle budget\n"
          "                      (default 2000000)\n"
          "  --max-ops=N         max commands per case (default 8)\n"
          "  --repro-out=PATH    write the shrunk failing case here\n"
          "  --no-shrink         report the raw failing case unshrunk\n"
          "  --plant-violation   inject a bogus AXI beat into every\n"
          "                      case (self-test of the catch path)\n"
          "  --plant-lint-violation\n"
          "                      append a defective system to every\n"
          "                      case (self-test of the composition\n"
          "                      linter's catch path)\n"
          "  --plant-power-violation\n"
          "                      plant a phantom energy leak in every\n"
          "                      case's power ledger (self-test of the\n"
          "                      energy-conservation invariant)\n"
          "  --differential      run every case under both simulation\n"
          "                      kernels (tick as reference, then\n"
          "                      event) and fail on any\n"
          "                      digest/cycle/outcome divergence\n"
          "  --sim-kernel=K      kernel for non-differential runs:\n"
          "                      tick (default) or event\n"
          "  --plant-lost-wake=N drop every Nth event-kernel wake\n"
          "                      schedule in every case (self-test of\n"
          "                      the differential catch path; implies\n"
          "                      nothing under the tick kernel)\n"
          "  --plant-wake-violation=N\n"
          "                      suppress the Nth push-wake arming at\n"
          "                      elaboration in every case (self-test\n"
          "                      of the static analyzer's BTH100 catch\n"
          "                      path)\n"
          "  --replay=PATH       run one case from a repro file instead\n"
          "                      of sampling\n"
          "  --verbose           per-iteration progress lines\n";
}

/**
 * Read --NAME=N into @p out. @return false when @p arg is another
 * flag; a value that is not a decimal count is a usage error (exit 2).
 */
bool
parseU64Flag(const std::string &arg, const std::string &name, u64 &out)
{
    const std::string prefix = "--" + name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    const std::string value = arg.substr(prefix.size());
    const std::optional<u64> n = parseDecimal(value);
    if (!n) {
        std::cerr << "soc_fuzz: bad --" << name << " value '" << value
                  << "' (expected a 64-bit decimal count)\n";
        std::exit(2);
    }
    out = *n;
    return true;
}

bool
parseStringFlag(const std::string &arg, const std::string &name,
                std::string &out)
{
    const std::string prefix = "--" + name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    u64 seed = 1;
    u64 iterations = 25;
    u64 max_ops = 8;
    FuzzOptions opt;
    std::string repro_out;
    std::string replay_path;
    bool do_shrink = true;
    bool plant = false;
    bool plant_lint = false;
    bool plant_power = false;
    u64 plant_lost_wake = 0;
    u64 plant_wake_violation = 0;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        u64 v = 0;
        std::string kernel_name;
        if (parseU64Flag(arg, "seed", seed) ||
            parseU64Flag(arg, "iterations", iterations) ||
            parseU64Flag(arg, "max-ops", max_ops) ||
            parseU64Flag(arg, "plant-lost-wake", plant_lost_wake) ||
            parseU64Flag(arg, "plant-wake-violation",
                         plant_wake_violation) ||
            parseStringFlag(arg, "repro-out", repro_out) ||
            parseStringFlag(arg, "replay", replay_path)) {
            continue;
        } else if (parseU64Flag(arg, "max-cycles", v)) {
            opt.maxCycles = v;
        } else if (parseStringFlag(arg, "sim-kernel", kernel_name)) {
            if (kernel_name == "tick") {
                opt.kernel = SimKernel::Tick;
            } else if (kernel_name == "event") {
                opt.kernel = SimKernel::Event;
            } else {
                std::cerr << "soc_fuzz: bad --sim-kernel '"
                          << kernel_name
                          << "' (expected tick or event)\n";
                return 2;
            }
        } else if (arg == "--differential") {
            opt.differential = true;
        } else if (arg == "--no-shrink") {
            do_shrink = false;
        } else if (arg == "--plant-violation") {
            plant = true;
        } else if (arg == "--plant-lint-violation") {
            plant_lint = true;
        } else if (arg == "--plant-power-violation") {
            plant_power = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "soc_fuzz: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    // Replay mode: one case from disk, no sampling, no shrinking.
    if (!replay_path.empty()) {
        FuzzCase c;
        try {
            c = loadReproFile(replay_path);
        } catch (const ConfigError &e) {
            std::cerr << "soc_fuzz: " << e.what() << "\n";
            return 2;
        }
        const FuzzResult r = runFuzzCase(c, opt);
        std::cout << "replay " << replay_path << ": "
                  << failKindName(r.kind);
        if (!r.message.empty())
            std::cout << " (" << r.message << ")";
        std::cout << " after " << r.cycles << " cycles, " << r.axiEvents
                  << " AXI events checked\n";
        return r.kind == FailKind::None ? 0 : 3;
    }

    // A plant must come back as a build error that names its code. The
    // lint gate runs first, so with both plants armed only it can fire.
    const char *planted = nullptr;
    if (plant_lint)
        planted = "BTH003";
    else if (plant_wake_violation != 0)
        planted = "BTH100";

    u64 total_cycles = 0, total_axi = 0, total_resps = 0;
    for (u64 it = 0; it < iterations; ++it) {
        const u64 case_seed = seed + it;
        RandomSocBuilder builder(case_seed);
        FuzzCase c = builder.sample();
        RandomTrafficGen traffic(case_seed ^ 0x74726166666963ULL);
        traffic.generate(c, static_cast<unsigned>(max_ops));
        c.plantViolation = plant;
        c.plantLintViolation = plant_lint;
        c.plantPowerViolation = plant_power;
        c.plantLostWake = plant_lost_wake;
        c.plantWakeViolation = plant_wake_violation;

        const FuzzResult r = runFuzzCase(c, opt);
        total_cycles += r.cycles;
        total_axi += r.axiEvents;
        total_resps += r.responses;
        if (verbose) {
            std::cout << "iter " << it << " seed " << case_seed << ": "
                      << c.systems.size() << " systems, "
                      << c.ops.size() << " ops -> "
                      << failKindName(r.kind) << " in " << r.cycles
                      << " cycles\n";
        }
        if (planted != nullptr &&
            (r.kind != FailKind::BuildError ||
             r.message.find(planted) == std::string::npos)) {
            std::cerr << "soc_fuzz: planted "
                      << (plant_lint ? "lint" : "wake")
                      << " violation was not caught (seed " << case_seed
                      << ")\n";
            return 2;
        }
        if (r.kind == FailKind::None)
            continue;

        std::cerr << "soc_fuzz: seed " << case_seed << " failed ("
                  << failKindName(r.kind) << "): " << r.message << "\n";
        FuzzCase minimal = c;
        if (do_shrink) {
            unsigned attempts = 0;
            minimal = shrink(c, opt, r.kind, /*max_attempts=*/200,
                             &attempts);
            std::cerr << "soc_fuzz: shrunk to " << minimal.systems.size()
                      << " systems / " << minimal.ops.size()
                      << " ops in " << attempts << " replays\n";
        }
        if (!repro_out.empty()) {
            try {
                writeReproFile(minimal, repro_out);
                std::cerr << "soc_fuzz: repro written to " << repro_out
                          << "\n";
            } catch (const ConfigError &e) {
                std::cerr << "soc_fuzz: " << e.what() << "\n";
                return 2;
            }
        } else {
            std::cerr << fuzzCaseToJson(minimal);
        }
        return 3;
    }

    std::cout << "soc_fuzz: " << iterations << " iterations clean ("
              << total_cycles << " cycles, " << total_axi
              << " AXI events checked, " << total_resps
              << " responses)\n";
    return 0;
}
