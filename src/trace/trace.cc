#include "trace/trace.h"

#include <algorithm>
#include <iomanip>

#include "base/json.h"
#include "base/log.h"

namespace beethoven
{

TraceSink::TraceSink()
{
    _processNames.push_back("sim");
}

void
TraceSink::beginProcess(const std::string &name)
{
    // pid 0 ("sim") is the implicit scope for sinks that never call
    // beginProcess; the first explicit process replaces it if unused.
    if (_events.empty() && _pid == 0 && _tracks.empty()) {
        _processNames[0] = name;
    } else {
        _processNames.push_back(name);
        _pid = static_cast<u32>(_processNames.size() - 1);
        _tracks.clear();
    }
}

bool
TraceSink::admit()
{
    if (_events.size() >= _maxEvents) {
        ++_dropped;
        return false;
    }
    return true;
}

u32
TraceSink::trackId(const std::string &name)
{
    auto it = _tracks.find(name);
    if (it != _tracks.end())
        return it->second;
    const u32 tid = _nextTid++;
    _tracks.emplace(name, tid);
    _trackNames.push_back({{_pid, tid}, name});
    return tid;
}

void
TraceSink::span(const char *category, const std::string &name,
                const std::string &track, Cycle begin, Cycle end,
                std::initializer_list<Arg> args)
{
    if (!admit())
        return;
    beethoven_assert(end >= begin,
                     "span %s on %s ends (%llu) before it begins (%llu)",
                     name.c_str(), track.c_str(),
                     static_cast<unsigned long long>(end),
                     static_cast<unsigned long long>(begin));
    Event e;
    e.kind = Kind::Span;
    e.pid = _pid;
    e.tid = trackId(track);
    e.start = begin;
    e.dur = end - begin;
    e.cat = category;
    e.name = name;
    for (const auto &[k, v] : args)
        e.args.emplace_back(k, v);
    _categories.insert(category);
    _events.push_back(std::move(e));
}

void
TraceSink::instant(const char *category, const std::string &name,
                   const std::string &track, Cycle at,
                   std::initializer_list<Arg> args)
{
    if (!admit())
        return;
    Event e;
    e.kind = Kind::Instant;
    e.pid = _pid;
    e.tid = trackId(track);
    e.start = at;
    e.cat = category;
    e.name = name;
    for (const auto &[k, v] : args)
        e.args.emplace_back(k, v);
    _categories.insert(category);
    _events.push_back(std::move(e));
}

void
TraceSink::counter(const char *category, const std::string &name,
                   Cycle at, double value)
{
    if (!admit())
        return;
    Event e;
    e.kind = Kind::Counter;
    e.pid = _pid;
    e.start = at;
    e.value = value;
    e.cat = category;
    e.name = name;
    _categories.insert(category);
    _events.push_back(std::move(e));
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (std::size_t pid = 0; pid < _processNames.size(); ++pid) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":"
           << jsonString(_processNames[pid]) << "}}";
    }
    for (const auto &[key, name] : _trackNames) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
           << key.first << ",\"tid\":" << key.second
           << ",\"args\":{\"name\":" << jsonString(name) << "}}";
    }
    for (const Event &e : _events) {
        sep();
        os << "{\"name\":" << jsonString(e.name)
           << ",\"cat\":" << jsonString(e.cat) << ",\"pid\":" << e.pid;
        switch (e.kind) {
          case Kind::Span:
            os << ",\"tid\":" << e.tid << ",\"ph\":\"X\",\"ts\":"
               << e.start << ",\"dur\":" << e.dur;
            break;
          case Kind::Instant:
            os << ",\"tid\":" << e.tid
               << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.start;
            break;
          case Kind::Counter:
            os << ",\"tid\":0,\"ph\":\"C\",\"ts\":" << e.start;
            break;
        }
        if (e.kind == Kind::Counter) {
            os << ",\"args\":{\"value\":" << e.value << "}";
        } else if (!e.args.empty()) {
            os << ",\"args\":{";
            bool afirst = true;
            for (const auto &[k, v] : e.args) {
                if (!afirst)
                    os << ",";
                afirst = false;
                os << jsonString(k) << ":" << v;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
}

void
TraceSink::writeSummary(std::ostream &os) const
{
    std::map<std::string, std::size_t> per_cat;
    std::map<std::string, std::size_t> per_track;
    Cycle lo = 0, hi = 0;
    bool any = false;
    for (const Event &e : _events) {
        ++per_cat[e.cat];
        if (!any) {
            lo = e.start;
            hi = e.start + e.dur;
            any = true;
        } else {
            lo = std::min(lo, e.start);
            hi = std::max(hi, e.start + e.dur);
        }
        if (e.kind == Kind::Counter)
            continue;
        for (const auto &[key, name] : _trackNames) {
            if (key.first == e.pid && key.second == e.tid) {
                ++per_track[name];
                break;
            }
        }
    }
    os << "trace: " << _events.size() << " events";
    if (_dropped)
        os << " (+" << _dropped << " dropped at cap)";
    if (any)
        os << ", cycles " << lo << " .. " << hi;
    os << "\n";
    for (const auto &[cat, n] : per_cat)
        os << "  category " << cat << ": " << n << " events\n";
    for (const auto &[track, n] : per_track)
        os << "  track " << track << ": " << n << " events\n";
}

void
TraceSink::writeProfile(std::ostream &os) const
{
    struct Agg
    {
        std::vector<Cycle> durs;
        u64 total = 0;
        Cycle maxDur = 0;
    };
    std::map<std::string, Agg> per_track;
    Cycle lo = 0, hi = 0;
    bool any = false;
    for (const Event &e : _events) {
        if (e.kind != Kind::Span)
            continue;
        std::string track = "?";
        for (const auto &[key, name] : _trackNames) {
            if (key.first == e.pid && key.second == e.tid) {
                track = name;
                break;
            }
        }
        Agg &a = per_track[track];
        a.durs.push_back(e.dur);
        a.total += e.dur;
        a.maxDur = std::max(a.maxDur, e.dur);
        if (!any) {
            lo = e.start;
            hi = e.start + e.dur;
            any = true;
        } else {
            lo = std::min(lo, e.start);
            hi = std::max(hi, e.start + e.dur);
        }
    }
    if (!any) {
        os << "(no spans recorded)\n";
        return;
    }
    const double run = static_cast<double>(hi - lo);
    os << "# cycle budget over cycles " << lo << " .. " << hi << "\n";
    os << std::left << std::setw(40) << "track" << std::right
       << std::setw(8) << "count" << std::setw(12) << "mean"
       << std::setw(12) << "p95" << std::setw(12) << "max"
       << std::setw(9) << "% run" << "\n";
    for (auto &[track, agg] : per_track) {
        std::sort(agg.durs.begin(), agg.durs.end());
        const std::size_t n = agg.durs.size();
        const Cycle p95 = agg.durs[std::min(n - 1, n * 95 / 100)];
        os << std::left << std::setw(40) << track << std::right
           << std::setw(8) << n << std::setw(12) << std::fixed
           << std::setprecision(1)
           << static_cast<double>(agg.total) / static_cast<double>(n)
           << std::setw(12) << p95 << std::setw(12) << agg.maxDur
           << std::setw(8) << std::setprecision(1)
           << (run > 0 ? 100.0 * static_cast<double>(agg.total) / run
                       : 0.0)
           << "%\n";
    }
}

} // namespace beethoven
