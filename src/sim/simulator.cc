#include "sim/simulator.h"

#include <iostream>

#include "base/log.h"
#include "perf/host_clock.h"
#include "perf/host_profiler.h"
#include "power/power.h"
#include "trace/stall.h"
#include "trace/trace.h"

namespace beethoven
{

namespace
{

// Per-thread KPI counters (see globalSimCycles in simulator.h): a
// Simulator only ever steps on one thread, so runs on different
// threads never share them.
thread_local u64 g_simCycles = 0;
thread_local u64 g_moduleTicks = 0;

} // namespace

// The simulation thread's role (see base/thread_annotations.h).
ThreadRole gSimThreadRole;

u64
globalSimCycles()
{
    return g_simCycles;
}

u64
globalModuleTicks()
{
    return g_moduleTicks;
}

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

Module::Module(Simulator &sim, std::string name)
    : _sim(sim), _name(std::move(name))
{
    sim.registerModule(this);
}

void
Module::requestSleep()
{
    beethoven_assert(_sleepDeclared,
                     "requestSleep without declareSleepable(): the static "
                     "analyzer cannot see this sleep site");
    if (_sim.eventKernel())
        _sim.sleepModule(this);
}

void
Module::requestWakeAt(Cycle at)
{
    beethoven_assert(_selfWakeDeclared,
                     "requestWakeAt without declareSelfWake(): the static "
                     "analyzer cannot see this self-arm site");
    _sim.wakeAt(this, at);
}

void
Module::sleepWith(StallAccount &acct, StallClass gap_class)
{
    beethoven_assert(_sleepDeclared,
                     "sleepWith without declareSleepable(): the static "
                     "analyzer cannot see this sleep site");
    if (!_sim.eventKernel())
        return;
    acct.setGapClass(gap_class);
    _sim.sleepModule(this);
}

void
Module::declareSleepable(std::source_location loc)
{
    _sleepDeclared = true;
    _sim.graphRecord().setSleepable(this, loc);
}

void
Module::declareSelfWake(std::source_location loc)
{
    _selfWakeDeclared = true;
    _sim.graphRecord().setSelfWake(this, loc);
}

void
Module::declareRole(const char *role)
{
    _sim.graphRecord().setRole(this, role);
}

const char *
simKernelName(SimKernel k)
{
    switch (k) {
    case SimKernel::Event:
        return "event";
    case SimKernel::Tick:
        break;
    }
    return "tick";
}

void
Simulator::setKernel(SimKernel k)
{
    gSimThreadRole.assertHeld();
    _kernel = k;
    if (k == SimKernel::Event) {
        // Conservative start: everything awake, quiescence re-forms as
        // modules discover they have nothing to do. Stale wheel entries
        // from an earlier event phase only cause spurious wakes.
        for (Module *m : _modules)
            m->_awake = true;
    }
}

void
Simulator::wakeNow(Module *m)
{
    gSimThreadRole.assertHeld();
    if (_kernel == SimKernel::Tick || m->_awake)
        return;
    if (_inTickPhase && m->_index <= _cursor) {
        // The module already ticked this cycle (or is mid-tick): the
        // earliest it could observe the event under the tick kernel is
        // next cycle, so defer the wake to the wheel.
        scheduleWake(m, _cycle + 1);
    } else {
        m->_awake = true;
    }
}

void
Simulator::wakeAt(Module *m, Cycle at)
{
    gSimThreadRole.assertHeld();
    if (_kernel == SimKernel::Tick)
        return;
    if (at <= _cycle) {
        wakeNow(m);
        return;
    }
    scheduleWake(m, at);
}

void
Simulator::scheduleWake(Module *m, Cycle at)
{
    if (m->_lastScheduledWake == at)
        return; // a wheel entry for this cycle is already armed
    m->_lastScheduledWake = at;
    ++_scheduledWakes;
    if (_plantLostWakePeriod != 0 &&
        _scheduledWakes % _plantLostWakePeriod == 0) {
        return; // planted fault: this wake is silently lost
    }
    _wheel.schedule(_cycle, at, m);
}

std::size_t
Simulator::activeModules() const
{
    std::size_t n = 0;
    for (const Module *m : _modules)
        n += m->_awake ? 1 : 0;
    return n;
}

std::size_t
Simulator::pendingWakes() const
{
    gSimThreadRole.assertHeld();
    return _wheel.pending();
}

void
Simulator::step()
{
    gSimThreadRole.assertHeld();
    // The tick kernel ticks every module; it never reads the awake
    // flags, so the differential reference stays independent of the
    // wake machinery. The event kernel drains due wakes and skips
    // sleepers.
    const bool event = _kernel == SimKernel::Event;
    if (event)
        _wheel.drain(_cycle, [](Module *m) { m->_awake = true; });

    // On a cycle the profiler measures, one clock read follows each
    // tick that runs, so per-component times are disjoint slices of
    // the measured total and their sum cannot exceed it.
    const bool measured = _hostProf != nullptr && _hostProf->onCycle();
    u64 t_start = 0;
    if (measured) {
        // Modules registered since attach get their component ids on
        // their first measured cycle.
        for (std::size_t i = _profIds.size(); i < _modules.size(); ++i)
            _profIds.push_back(_hostProf->componentId(_modules[i]->name()));
        t_start = hostNowNs();
    }
    u64 t_prev = t_start;

    _inTickPhase = true;
    u64 ticks = 0;
    for (std::size_t i = 0; i < _modules.size(); ++i) {
        Module *m = _modules[i];
        if (event && !m->_awake)
            continue;
        _cursor = i;
        m->tick();
        ++ticks;
        if (measured) {
            const u64 t_now = hostNowNs();
            _hostProf->add(_profIds[i], t_now - t_prev);
            t_prev = t_now;
        }
    }
    _inTickPhase = false;
    g_moduleTicks += ticks;
    if (measured)
        _hostProf->addTotal(t_prev - t_start);

    ++_cycle;
    ++g_simCycles;
    if ((_cycle & (kSampleWindow - 1)) == 0)
        sampleWindow();
    if (!_invariants.empty() && _cycle % kInvariantPeriod == 0)
        checkInvariants();
    if (_watchdogLimit != 0 && _cycle - _lastProgress > _watchdogLimit) {
        dumpHangDiagnostics(std::cerr);
        fatal("simulation hang: no module made forward progress for "
              "%llu cycles (at cycle %llu)",
              static_cast<unsigned long long>(_cycle - _lastProgress),
              static_cast<unsigned long long>(_cycle));
    }
}

void
Simulator::sampleWindow()
{
    if (_powerMeter != nullptr)
        _powerMeter->sample(*this);
    if (_trace == nullptr)
        return;
    for (StallAccount *a : _stallAccounts)
        a->emitCounters(*_trace, _cycle);
    if (_hostProf != nullptr)
        _hostProf->emitCounters(*_trace, _cycle);
    for (const CounterSampler &fn : _counterSamplers)
        fn(*_trace, _cycle);
}

void
Simulator::run(Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        step();
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    for (Cycle i = 0; i < max_cycles; ++i) {
        if (done())
            return true;
        step();
    }
    return done();
}

void
Simulator::publishStallStats()
{
    // Fold distributed counters (per-NoC-node flit locals, ...) into
    // their scalars before anything reads the stats tree.
    for (const auto &fn : _statFolders)
        fn();
    _stats.scalar("cycles").set(static_cast<double>(_cycle));
    for (StallAccount *a : _stallAccounts)
        a->publish(_stats.group(a->name()), _cycle);
}

void
Simulator::dumpHangDiagnostics(std::ostream &os) const
{
    os << "=== hang diagnostics: cycle "
       << static_cast<unsigned long long>(_cycle) << ", last progress at "
       << static_cast<unsigned long long>(_lastProgress) << " ===\n";
    if (!_stallAccounts.empty())
        os << "per-module stall state:\n";
    for (const StallAccount *a : _stallAccounts)
        a->dumpState(os, _cycle);
    for (const auto &fn : _hangDumpers)
        fn(os);
    os.flush();
}

} // namespace beethoven
