/**
 * @file
 * Fuzz execution, failure classification, case shrinking, and repro
 * serialization — the engine behind tools/soc_fuzz.
 *
 * One iteration: elaborate the FuzzCase onto a FuzzPlatform, attach
 * SocInvariants (live AXI/NoC/response checking) and the hang
 * watchdog, drive the traffic schedule through the real runtime
 * (fpga_handle_t), then differential-check end-state memory and
 * response payloads against the golden model. Failures are classified
 * by kind; the shrinker greedily minimizes a failing case while
 * preserving the failure kind, and repro files round-trip through
 * JSON (seeds as strings — the parser's doubles can't hold a u64).
 */

#ifndef BEETHOVEN_VERIFY_FUZZ_H
#define BEETHOVEN_VERIFY_FUZZ_H

#include <string>

#include "sim/simulator.h"
#include "verify/random_soc.h"

namespace beethoven::verify
{

/** What a fuzz iteration produced. */
enum class FailKind {
    None = 0,       ///< completed and matched golden
    BuildError,     ///< elaboration rejected the configuration
    Violation,      ///< a live invariant fired
    Hang,           ///< watchdog or max-cycles budget exceeded
    Mismatch,       ///< memory or response payload differs from golden
    Divergence,     ///< kernels disagreed (differential mode)
};

const char *failKindName(FailKind k);

struct FuzzOptions
{
    Cycle maxCycles = 2'000'000;  ///< overall per-case cycle budget
    Cycle watchdogCycles = 50'000; ///< no-progress limit
    SimKernel kernel = SimKernel::Tick; ///< kernel for the single run
    /** Run the case under both kernels (tick as the reference, then
     *  event) and compare outcome kind, final cycle and the full stats
     *  digest; any difference is classified FailKind::Divergence (and
     *  shrinks like any other kind). */
    bool differential = false;
};

struct FuzzResult
{
    FailKind kind = FailKind::None;
    std::string message; ///< empty for FailKind::None
    Cycle cycles = 0;    ///< simulated cycles consumed
    u64 axiEvents = 0;   ///< AXI beats checked live
    u64 responses = 0;   ///< responses collected
    /** Stats-tree JSON + "@" + final cycle: the bit-identity witness
     *  the differential mode compares across kernels. */
    std::string statsDigest;
};

/** Elaborate, run, and check one case. Never throws. */
FuzzResult runFuzzCase(const FuzzCase &c, const FuzzOptions &opt);

/**
 * Greedy failing-case minimizer. Repeated passes truncate traffic,
 * halve workload sizes, drop systems, halve core counts, simplify
 * channel knobs, and flatten the platform; a candidate is accepted
 * iff it still fails with @p kind. Bounded by @p max_attempts runs.
 *
 * @param attempts_out  optional: replay-run count actually spent
 */
FuzzCase shrink(FuzzCase c, const FuzzOptions &opt, FailKind kind,
                unsigned max_attempts = 200,
                unsigned *attempts_out = nullptr);

/** Serialize a case as a self-contained JSON repro document. */
std::string fuzzCaseToJson(const FuzzCase &c);

/** Parse fuzzCaseToJson output. @throws ConfigError on bad input. */
FuzzCase fuzzCaseFromJson(const std::string &text);

/** Write/read a repro file. @throws ConfigError on IO failure. */
void writeReproFile(const FuzzCase &c, const std::string &path);
FuzzCase loadReproFile(const std::string &path);

} // namespace beethoven::verify

#endif // BEETHOVEN_VERIFY_FUZZ_H
