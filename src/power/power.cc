#include "power/power.h"

#include <cmath>

#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

PowerMeter::PowerMeter()
{
    _report.windowCycles = static_cast<double>(Simulator::kSampleWindow);
}

void
PowerMeter::adopt(const PowerLedger *ledger)
{
    // A ledger holds no energy at cycle 0: no static time has elapsed
    // and no activity counter has moved. So the baselines are zero,
    // however late the meter first sees the ledger.
    _ledger = ledger;
    _lastSampleCycle = 0;
    _lastJoules.assign(ledger->numComponents(), 0.0);
    _peakWatts.assign(ledger->numComponents(), 0.0);
    _lastTotalJoules = 0.0;
    _peakTotalWatts = 0.0;
    _runStartCycle = 0;
    _runStartJoules = _lastJoules;
    _runStartTotalJoules = 0.0;
}

void
PowerMeter::markRunStart(Simulator &sim)
{
    const PowerLedger *ledger = sim.powerLedger();
    if (ledger == nullptr)
        return;
    if (ledger != _ledger)
        adopt(ledger);
    const Cycle cycle = sim.cycle();
    _runStartCycle = cycle;
    _runStartJoules.resize(ledger->numComponents());
    for (std::size_t i = 0; i < ledger->numComponents(); ++i)
        _runStartJoules[i] = ledger->componentJoules(i, cycle);
    _runStartTotalJoules = ledger->totalJoules(cycle);
}

void
PowerMeter::sample(Simulator &sim)
{
    const PowerLedger *ledger = sim.powerLedger();
    if (ledger == nullptr)
        return;
    if (ledger != _ledger)
        adopt(ledger);
    const Cycle cycle = sim.cycle();
    const double dt =
        ledger->seconds(cycle) - ledger->seconds(_lastSampleCycle);
    if (dt <= 0.0) {
        _lastSampleCycle = cycle;
        return;
    }
    TraceSink *ts = sim.trace();
    for (std::size_t i = 0; i < ledger->numComponents(); ++i) {
        const double j = ledger->componentJoules(i, cycle);
        const double w = (j - _lastJoules[i]) / dt;
        _lastJoules[i] = j;
        if (w > _peakWatts[i])
            _peakWatts[i] = w;
        if (ts != nullptr)
            ts->counter("power", "power/" + ledger->component(i).name,
                        cycle, w);
    }
    const double tj = ledger->totalJoules(cycle);
    const double tw = (tj - _lastTotalJoules) / dt;
    _lastTotalJoules = tj;
    if (tw > _peakTotalWatts)
        _peakTotalWatts = tw;
    if (ts != nullptr)
        ts->counter("power", "power/soc", cycle, tw);
    _lastSampleCycle = cycle;
}

void
PowerMeter::recordRun(Simulator &sim, const std::string &label,
                      double ops)
{
    const PowerLedger *ledger = sim.powerLedger();
    if (ledger == nullptr)
        return;
    if (ledger != _ledger)
        adopt(ledger);
    const Cycle cycle = sim.cycle();
    const Cycle run_cycles = cycle - _runStartCycle;
    const double secs =
        ledger->seconds(cycle) - ledger->seconds(_runStartCycle);

    PowerRunRecord r;
    r.label = label;
    r.clockMhz = ledger->clockMhz();
    r.cycles = static_cast<double>(run_cycles);
    r.joules = ledger->totalJoules(cycle) - _runStartTotalJoules;
    r.avgWatts = secs > 0.0 ? r.joules / secs : 0.0;
    r.staticWatts = ledger->staticWatts();
    r.ops = ops;
    r.slrWatts.assign(ledger->numSlrs(), 0.0);

    double peak = _peakTotalWatts;
    for (std::size_t i = 0; i < ledger->numComponents(); ++i) {
        const PowerLedger::Component &c = ledger->component(i);
        PowerComponentRecord cr;
        cr.name = c.name;
        cr.slr = c.slr;
        cr.joules = ledger->componentJoules(i, cycle) -
                    (i < _runStartJoules.size() ? _runStartJoules[i]
                                                : 0.0);
        cr.avgWatts = secs > 0.0 ? cr.joules / secs : 0.0;
        cr.peakWatts =
            i < _peakWatts.size() ? _peakWatts[i] : 0.0;
        if (cr.slr < r.slrWatts.size())
            r.slrWatts[cr.slr] += cr.avgWatts;
        r.components.push_back(std::move(cr));
    }
    // Before the first full sampling window the tracked peak is still
    // zero; the run average is the best lower bound available.
    if (peak < r.avgWatts)
        peak = r.avgWatts;
    r.peakWatts = peak;
    _report.runs.push_back(std::move(r));

    // The next labeled run accounts from here.
    markRunStart(sim);
}

void
PowerMeter::addReference(const std::string &label, double watts,
                         double ops_per_sec)
{
    PowerRunRecord r;
    r.label = label;
    r.reference = true;
    r.avgWatts = watts;
    r.opsPerSec = ops_per_sec;
    _report.runs.push_back(std::move(r));
}

void
EnergyConservationInvariant::check(Cycle cycle)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < _ledger.numComponents(); ++i)
        sum += _ledger.componentJoules(i, cycle);
    const double total = _ledger.totalJoules(cycle);
    const double tol = 1e-6 * std::abs(total) + 1e-9;
    if (std::abs(total - sum) > tol) {
        fatal("invariant violation [energy-conservation]: component "
              "energies sum to %.12g J but the SoC total is %.12g J "
              "at cycle %llu (delta %.3g J)",
              sum, total, static_cast<unsigned long long>(cycle),
              total - sum);
    }
}

} // namespace beethoven
