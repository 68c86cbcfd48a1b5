#include "perf/host_profiler.h"

#include <algorithm>
#include <iomanip>

#include "base/json.h"
#include "trace/trace.h"

namespace beethoven
{

HostProfiler::HostProfiler(u32 period) : _period(period == 0 ? 1 : period)
{}

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
    os << "host-time breakdown (period " << _period << ", "
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
    os << "{\"period\":" << _period
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
