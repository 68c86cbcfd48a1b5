#include "trace/stall.h"

#include <ostream>

#include "base/stats.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace beethoven
{

const char *
stallClassName(StallClass c)
{
    switch (c) {
      case StallClass::Busy: return "busy";
      case StallClass::StallUpstream: return "stall_upstream";
      case StallClass::StallDownstream: return "stall_downstream";
      case StallClass::StallMem: return "stall_mem";
      case StallClass::StallCmd: return "stall_cmd";
      case StallClass::Idle: return "idle";
    }
    return "?";
}

StallAccount::StallAccount(Simulator &sim, std::string name)
    : _sim(sim), _name(std::move(name))
{
    sim.registerStallAccount(this);
}

void
StallAccount::account(StallClass c)
{
    const Cycle now = _sim.cycle();
    if (_nextUnaccounted == now + 1) {
        // Second classification of the same cycle: last call wins.
        if (c != _current) {
            --_counts[static_cast<std::size_t>(_current)];
            ++_counts[static_cast<std::size_t>(c)];
            _current = c;
        }
    } else {
        _counts[static_cast<std::size_t>(_gapClass)] +=
            now - _nextUnaccounted;
        _gapClass = StallClass::Idle;
        ++_counts[static_cast<std::size_t>(c)];
        _nextUnaccounted = now + 1;
        _current = c;
    }
    if (c == StallClass::Busy)
        _sim.noteProgress();
}

void
StallAccount::publish(StatGroup &module_group, Cycle now)
{
    if (now > _nextUnaccounted) {
        // Backfill up to now. While a module sleeps under the event
        // kernel _gapClass carries its parked classification; it stays
        // set because the module is still inside the same gap.
        _counts[static_cast<std::size_t>(_gapClass)] +=
            now - _nextUnaccounted;
        _nextUnaccounted = now;
    }
    StatGroup &g = module_group.group("stall");
    for (std::size_t i = 0; i < kNumStallClasses; ++i) {
        g.scalar(stallClassName(static_cast<StallClass>(i)))
            .set(static_cast<double>(_counts[i]));
    }
}

void
StallAccount::emitCounters(TraceSink &ts, Cycle now)
{
    for (std::size_t i = 0; i < kNumStallClasses; ++i) {
        if (_counts[i] == _emitted[i])
            continue; // skip flat tracks to keep the trace small
        ts.counter("stall",
                   _name + "." +
                       stallClassName(static_cast<StallClass>(i)),
                   now, static_cast<double>(_counts[i] - _emitted[i]));
        _emitted[i] = _counts[i];
    }
}

u64
StallAccount::count(StallClass c) const
{
    u64 n = _counts[static_cast<std::size_t>(c)];
    const Cycle now = _sim.cycle();
    if (c == _gapClass && now > _nextUnaccounted)
        n += now - _nextUnaccounted; // the gap not yet backfilled
    return n;
}

void
StallAccount::dumpState(std::ostream &os) const
{
    os << "  " << _name << ": last=" << stallClassName(_current);
    for (std::size_t i = 0; i < kNumStallClasses; ++i) {
        const auto c = static_cast<StallClass>(i);
        os << " " << stallClassName(c) << "=" << count(c);
    }
    os << "\n";
}

} // namespace beethoven
