/**
 * @file
 * The beethoven-power-1 stats-JSON schema (DESIGN.md §4f).
 *
 * One file records the power/energy telemetry of one bench process:
 * per labeled run, the cycle count, total joules, average/peak watts,
 * the static floor, the per-component and per-SLR breakdown, and —
 * for benches that report operation counts — energy-per-op. Analytic
 * reference rows (e.g. Table III's GPU numbers) carry a `reference`
 * marker plus their published watts and throughput, so efficiency
 * ratios against them are computable from the file alone.
 *
 * bench/common/bench_cli writes these via --power-json;
 * tools/power_report renders them. The parser accepts exactly schema
 * "beethoven-power-1" and throws ConfigError on anything else.
 */

#ifndef BEETHOVEN_POWER_POWER_JSON_H
#define BEETHOVEN_POWER_POWER_JSON_H

#include <ostream>
#include <string>
#include <vector>

#include "base/types.h"

namespace beethoven
{

struct JsonValue;

/** One component's share of a run's energy. */
struct PowerComponentRecord
{
    std::string name;
    unsigned slr = 0;
    double joules = 0.0;
    double avgWatts = 0.0;
    double peakWatts = 0.0;
};

/** One labeled run (or analytic reference point). */
struct PowerRunRecord
{
    std::string label;
    bool reference = false; ///< published numbers, not simulated

    // Measured runs.
    double clockMhz = 0.0;
    double cycles = 0.0;
    double joules = 0.0;
    double avgWatts = 0.0;
    double peakWatts = 0.0;
    double staticWatts = 0.0;
    double ops = 0.0; ///< 0 = the bench reported no operation count
    std::vector<double> slrWatts; ///< avg watts per SLR index
    std::vector<PowerComponentRecord> components;

    // Reference rows.
    double opsPerSec = 0.0;

    double
    seconds() const
    {
        return clockMhz > 0.0 ? cycles / (clockMhz * 1e6) : 0.0;
    }

    /** Microjoules per operation; 0 when no ops were reported. */
    double
    energyPerOpUj() const
    {
        if (reference)
            return opsPerSec > 0.0 ? avgWatts / opsPerSec * 1e6 : 0.0;
        return ops > 0.0 ? joules / ops * 1e6 : 0.0;
    }
};

struct PowerReport
{
    static constexpr const char *kSchema = "beethoven-power-1";

    double windowCycles = 1024.0; ///< meter sampling window
    std::vector<PowerRunRecord> runs;

    /** Run for @p label, or nullptr. */
    const PowerRunRecord *find(const std::string &label) const;

    /** Joules over all measured (non-reference) runs. */
    double totalJoules() const;

    /** Energy-weighted average watts over measured runs. */
    double summaryAvgWatts() const;

    /** energyPerOpUj of the last measured run reporting ops; 0 if none. */
    double summaryEnergyPerOpUj() const;
};

void writePowerReportJson(std::ostream &os, const PowerReport &report);

/**
 * Parse a power report from already-parsed JSON.
 * @throws ConfigError when the schema marker or required keys are
 *         missing or mistyped.
 */
PowerReport parsePowerReport(const JsonValue &v);

} // namespace beethoven

#endif // BEETHOVEN_POWER_POWER_JSON_H
