#include "perf/host_profiler.h"

#include <algorithm>
#include <iomanip>

#include "base/json.h"
#include "perf/host_clock.h"
#include "trace/trace.h"

namespace beethoven
{

namespace
{

/** Smallest power-of-two mask covering @p period cycles. */
Cycle
heartbeatMask(Cycle period)
{
    Cycle mask = 1;
    while (mask + 1 < period && mask < (1ull << 62))
        mask = (mask << 1) | 1;
    return mask;
}

} // namespace

HostProfiler::HostProfiler(Mode mode, u32 period, Cycle hb_period)
    : _mode(mode), _period(period == 0 ? 1 : period),
      _hbMask(heartbeatMask(hb_period)), _startNs(hostNowNs())
{
    _commitId = componentId("(commit)");
}

const char *
HostProfiler::modeName() const
{
    switch (_mode) {
    case Mode::KpiOnly:
        return "kpi-only";
    case Mode::Sampling:
        return "sampling";
    case Mode::Scoped:
        return "scoped";
    }
    return "?";
}

u32
HostProfiler::componentId(const std::string &name)
{
    auto it = _byName.find(name);
    if (it != _byName.end())
        return it->second;
    const u32 id = static_cast<u32>(_components.size());
    _components.push_back(Component{name, 0, 0});
    _byName.emplace(name, id);
    return id;
}

bool
HostProfiler::onCycle()
{
    ++_cycles;
    if ((_cycles & _hbMask) == 0) {
        _heartbeat.push_back({_cycles, hostNowNs() - _startNs});
        if (_heartbeat.size() > kMaxHeartbeatPoints) {
            // Double the window: keep every other point so the series
            // still ends at the newest sample.
            std::size_t out = 0;
            for (std::size_t i = 1; i < _heartbeat.size(); i += 2)
                _heartbeat[out++] = _heartbeat[i];
            _heartbeat.resize(out);
            _hbMask = (_hbMask << 1) | 1;
        }
    }
    if (_mode == Mode::KpiOnly)
        return false;
    if (_mode == Mode::Scoped)
        return true;
    if (++_sinceSample >= _period) {
        _sinceSample = 0;
        return true;
    }
    return false;
}

void
HostProfiler::emitCounters(TraceSink &sink, Cycle cycle)
{
    _emittedNs.resize(_components.size(), 0);
    for (std::size_t i = 0; i < _components.size(); ++i) {
        const u64 ns = _components[i].ns;
        if (ns == _emittedNs[i])
            continue;
        sink.counter("host", "host/" + _components[i].name, cycle,
                     static_cast<double>(ns - _emittedNs[i]) / 1000.0);
        _emittedNs[i] = ns;
    }
}

std::vector<HostProfiler::Component>
HostProfiler::top(std::size_t n) const
{
    std::vector<Component> sorted;
    for (const Component &c : _components)
        if (c.calls != 0)
            sorted.push_back(c);
    std::sort(sorted.begin(), sorted.end(),
              [](const Component &a, const Component &b) {
                  return a.ns != b.ns ? a.ns > b.ns : a.name < b.name;
              });
    if (sorted.size() > n)
        sorted.resize(n);
    return sorted;
}

void
HostProfiler::writeReport(std::ostream &os, std::size_t top_n) const
{
    os << "host-time breakdown (" << modeName() << " mode, "
       << _sampledCycles << " of " << _cycles << " cycles measured, "
       << _totalNs / 1000 << " us step-loop time):\n";
    const auto ranked = top(top_n);
    for (const Component &c : ranked) {
        os << "  " << std::left << std::setw(24) << c.name << std::right
           << std::setw(10) << c.ns / 1000 << " us  " << std::fixed
           << std::setprecision(1) << 100.0 * share(c) << "%\n";
        os.unsetf(std::ios::floatfield);
    }
    if (ranked.empty())
        os << "  (no measured cycles)\n";
}

void
HostProfiler::writeJson(std::ostream &os) const
{
    os << "{\"mode\":\"" << modeName() << "\",\"period\":" << _period
       << ",\"seen_cycles\":" << _cycles
       << ",\"sampled_cycles\":" << _sampledCycles
       << ",\"total_ns\":" << _totalNs << ",\"components\":[";
    bool first = true;
    for (const Component &c : top(_components.size())) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":" << jsonString(c.name) << ",\"ns\":" << c.ns
           << ",\"calls\":" << c.calls << ",\"share\":" << share(c)
           << "}";
    }
    os << "]}";
}

} // namespace beethoven
