#include "sim/simulator.h"

#include <bit>
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
        // and next-cycle bits from an earlier event phase only cause
        // spurious wakes.
        for (std::size_t i = 0; i < _modules.size(); ++i)
            awakeWord(i / 64) |= bit(i);
    }
}

void
Simulator::wheelWake(Module *m, Cycle at)
{
    _wheel.schedule(_cycle, at, m);
}

std::size_t
Simulator::activeModules() const
{
    gSimThreadRole.assertHeld();
    std::size_t n = 0;
    for (std::size_t w = 0; w < _masks.size(); w += 2)
        n += std::popcount(_masks[w]);
    return n;
}

std::size_t
Simulator::pendingWakes() const
{
    gSimThreadRole.assertHeld();
    std::size_t n = _wheel.pending();
    for (std::size_t w = 1; w < _masks.size(); w += 2)
        n += std::popcount(_masks[w]);
    return n;
}

void
Simulator::step()
{
    gSimThreadRole.assertHeld();
    // The tick kernel ticks every module; it never reads the masks,
    // so the differential reference stays independent of the wake
    // machinery. The event kernel takes in the wakes due now and ticks
    // only the awake modules.
    const bool event = _kernel == SimKernel::Event;
    if (event) {
        for (std::size_t w = 0; w < _masks.size(); w += 2) {
            _masks[w] |= _masks[w + 1];
            _masks[w + 1] = 0;
        }
        _wheel.drain(_cycle, [this](Module *m) {
            awakeWord(m->_index / 64) |= bit(m->_index);
        });
    }

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
    const std::size_t n = _modules.size();
    for (std::size_t w = 0; w * 64 < n; ++w) {
        // The tick kernel walks a full word in place of the mask.
        const u64 all = n - w * 64 >= 64 ? ~u64(0) : bit(n) - 1;
        // Re-read the word after every tick: a tick may wake a module
        // later in tick order, which then ticks this cycle.
        for (u64 bits = event ? awakeWord(w) : all; bits != 0;) {
            const unsigned b = std::countr_zero(bits);
            const std::size_t i = w * 64 + b;
            _cursor = i;
            _modules[i]->tick();
            ++ticks;
            if (measured) {
                const u64 t_now = hostNowNs();
                _hostProf->add(_profIds[i], t_now - t_prev);
                t_prev = t_now;
            }
            bits = (event ? awakeWord(w) : all) & (~u64(1) << b);
        }
    }
    _inTickPhase = false;
    _moduleTicks += ticks;
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
    // The window's ticks and wakes, counted whether or not a sink is
    // attached so a sink attached mid-run starts at its first window.
    const u64 ticks = _moduleTicks - _ticksSampled;
    const u64 wakes = _scheduledWakes - _wakesSampled;
    _ticksSampled = _moduleTicks;
    _wakesSampled = _scheduledWakes;
    if (_trace == nullptr)
        return;
    // Like the stall tracks, a window with none is not sampled.
    if (ticks != 0)
        _trace->counter("sim", "sim/ticks", _cycle,
                        static_cast<double>(ticks));
    if (wakes != 0)
        _trace->counter("sim", "sim/wakes", _cycle,
                        static_cast<double>(wakes));
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
        a->dumpState(os);
    for (const auto &fn : _hangDumpers)
        fn(os);
    os.flush();
}

} // namespace beethoven
