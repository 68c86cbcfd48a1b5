/**
 * @file
 * Activity-driven power and energy telemetry (DESIGN.md §4f).
 *
 * Three pieces, layered on the existing observability attachments:
 *
 *  - PowerLedger: the elaborated SoC's energy decomposition. Each
 *    component carries a static-watts share of the PowerModel's
 *    resource-proportional estimate plus a pull closure returning its
 *    cumulative dynamic energy in picojoules (activity counters the
 *    modules already maintain, scaled by the platform's per-event
 *    coefficients). By construction the SoC total is the ordered sum
 *    of the component energies, so conservation is exact (==), not
 *    approximate — tests assert on it bit-for-bit.
 *
 *  - PowerMeter: a Simulator attachment (like TraceSink/HostProfiler)
 *    that samples the ledger at every Simulator::kSampleWindow
 *    boundary, emits "power" counter-tracks into the simulator's
 *    attached TraceSink, tracks per-component peaks, and snapshots
 *    labeled runs into a beethoven-power-1 report.
 *    It writes nothing into the simulator's stats tree, so the stats
 *    digest is bit-identical with or without a meter attached.
 *
 *  - EnergyConservationInvariant: a live Simulator::Invariant that
 *    re-sums the component energies against the ledger total at every
 *    periodic check (the soc_fuzz energy-conservation oracle).
 */

#ifndef BEETHOVEN_POWER_POWER_H
#define BEETHOVEN_POWER_POWER_H

#include <functional>
#include <string>
#include <vector>

#include "base/types.h"
#include "power/power_json.h"
#include "sim/simulator.h"

namespace beethoven
{

/**
 * The per-component energy decomposition of one elaborated SoC.
 * Built by AcceleratorSoc::buildPowerLedger(); read (never written)
 * by PowerMeter and EnergyConservationInvariant.
 */
class PowerLedger
{
  public:
    /** One energy-bearing component of the SoC. */
    struct Component
    {
        std::string name;
        unsigned slr = 0;
        double staticWatts = 0.0;
        /** Cumulative dynamic energy so far, picojoules. */
        std::function<double()> dynamicPj;
    };

    PowerLedger(double clock_mhz, unsigned n_slrs)
        : _clockMhz(clock_mhz), _nSlrs(n_slrs)
    {
    }

    void add(std::string name, unsigned slr, double static_watts,
             std::function<double()> dynamic_pj)
    {
        _components.push_back(
            {std::move(name), slr, static_watts, std::move(dynamic_pj)});
    }

    std::size_t numComponents() const { return _components.size(); }
    const Component &component(std::size_t i) const
    {
        return _components[i];
    }

    double clockMhz() const { return _clockMhz; }
    unsigned numSlrs() const { return _nSlrs; }

    /** Wall-clock seconds @p cycle corresponds to at this clock. */
    double seconds(Cycle cycle) const
    {
        return static_cast<double>(cycle) / (_clockMhz * 1e6);
    }

    /** Energy component @p i has consumed through @p cycle, joules. */
    double componentJoules(std::size_t i, Cycle cycle) const
    {
        const Component &c = _components[i];
        return c.staticWatts * seconds(cycle) +
               c.dynamicPj() * 1e-12;
    }

    /**
     * SoC energy through @p cycle: the ordered sum of the component
     * energies (identical iteration order to a caller summing
     * componentJoules 0..n-1, so conservation holds exactly), plus any
     * planted leak.
     */
    double totalJoules(Cycle cycle) const
    {
        double j = 0.0;
        for (std::size_t i = 0; i < _components.size(); ++i)
            j += componentJoules(i, cycle);
        return j + _leakJoules;
    }

    /** Sum of the components' static watts (the zero-activity floor). */
    double staticWatts() const
    {
        double w = 0.0;
        for (const Component &c : _components)
            w += c.staticWatts;
        return w;
    }

    /**
     * Fault injection for the fuzz oracle: add phantom joules to the
     * SoC total only, breaking component-to-total conservation so the
     * EnergyConservationInvariant must fire.
     */
    void plantEnergyLeak(double joules) { _leakJoules += joules; }
    double plantedLeakJoules() const { return _leakJoules; }

  private:
    double _clockMhz;
    unsigned _nSlrs;
    std::vector<Component> _components;
    double _leakJoules = 0.0;
};

/**
 * Simulator attachment that samples a PowerLedger into power traces
 * and a beethoven-power-1 report. The meter opens a ledger's first
 * record and window at cycle 0, wherever it first sees the ledger.
 */
class PowerMeter
{
  public:
    PowerMeter();

    /**
     * Called by Simulator::step() at every window boundary: record the
     * per-component watts over the window just closed, update peaks,
     * and emit "power" counter-tracks into sim.trace() when a sink is
     * attached. No-op when the simulator has no ledger.
     */
    void sample(Simulator &sim);

    /**
     * Start a new accounting interval: energy accrued before this
     * call is excluded from the next recordRun. Use it to scope a run
     * record to a measured phase (e.g. Table III's attend batch,
     * excluding matrix-load DMA), matching the cycle window the
     * throughput numbers are computed over.
     */
    void markRunStart(Simulator &sim);

    /**
     * Snapshot the simulator's ledger into a labeled run record
     * covering the interval since the last markRunStart (or since
     * cycle 0), then start the next interval here.
     * @p ops = 0 means the bench reports no operation count.
     */
    void recordRun(Simulator &sim, const std::string &label,
                   double ops = 0.0);

    /** Add an analytic reference row (e.g. Table III's GPU). */
    void addReference(const std::string &label, double watts,
                      double ops_per_sec);

    const PowerReport &report() const { return _report; }
    const std::vector<PowerRunRecord> &runs() const
    {
        return _report.runs;
    }

  private:
    /** Start metering @p ledger: window and run record open at 0. */
    void adopt(const PowerLedger *ledger);

    PowerReport _report;

    // Sampling state for the current ledger.
    const PowerLedger *_ledger = nullptr;
    Cycle _lastSampleCycle = 0;
    std::vector<double> _lastJoules; ///< per component, at last sample
    std::vector<double> _peakWatts;  ///< per component, max window avg
    double _lastTotalJoules = 0.0;
    double _peakTotalWatts = 0.0;

    // Run-interval baseline (markRunStart / recordRun).
    Cycle _runStartCycle = 0;
    std::vector<double> _runStartJoules; ///< per component, at mark
    double _runStartTotalJoules = 0.0;
};

/**
 * Live oracle: the sum of per-component energies must equal the
 * ledger's SoC total. Exact by construction; the tolerance only
 * absorbs the non-associativity of an independent summation order.
 * A planted leak (PowerLedger::plantEnergyLeak) must trip it.
 */
class EnergyConservationInvariant : public Invariant
{
  public:
    explicit EnergyConservationInvariant(const PowerLedger &ledger)
        : _ledger(ledger)
    {
    }

    void check(Cycle cycle) override;

    const char *invariantName() const override
    {
        return "energy-conservation";
    }

  private:
    const PowerLedger &_ledger;
};

} // namespace beethoven

#endif // BEETHOVEN_POWER_POWER_H
