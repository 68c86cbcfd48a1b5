#include <algorithm>
#include <cstdio>
#include <regex>

#include "base/json.h"
#include "bench.h"

namespace perfbench
{

using beethoven::JsonValue;

int
Tracer::open(const char *name)
{
    if (!_enabled)
        return -1;
    const int id = static_cast<int>(_spans.size());
    _spans.push_back(Span{name, _current, nowNs(), 0,
                          beethoven::allocCounters().allocs, 0.0});
    _current = id;
    return id;
}

void
Tracer::close(int id, double work)
{
    if (id < 0)
        return;
    Span &s = _spans[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    s.allocs = beethoven::allocCounters().allocs - s.allocs;
    s.work = work;
    _current = s.parent;
}

std::map<std::string, Tracer::SelfTime>
Tracer::selfTimes() const
{
    // Spans nest strictly (one thread, stack discipline), so the part
    // of a span its children cover is the sum of their durations.
    std::vector<u64> child_ns(_spans.size(), 0);
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const u64 dur = _spans[i].endNs - _spans[i].startNs;
        SelfTime &st = out[_spans[i].name];
        ++st.count;
        st.totalNs += dur;
        st.selfNs += dur - std::min(dur, child_ns[i]);
    }
    return out;
}

void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

void
Tracer::writeJson(std::ostream &os,
                  const std::map<std::string, std::string> &provenance)
    const
{
    const u64 t0 = _spans.empty() ? 0 : _spans.front().startNs;
    os << "{\"schema\":\"perfbench-trace-1\",\"provenance\":{";
    bool first = true;
    for (const auto &[k, v] : provenance) {
        os << (first ? "" : ",");
        first = false;
        writeJsonString(os, k);
        os << ':';
        writeJsonString(os, v);
    }
    os << "},\"spans\":[";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        os << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":";
        writeJsonString(os, s.name);
        os << ",\"parent\":" << s.parent
           << ",\"start_ns\":" << (s.startNs - t0)
           << ",\"end_ns\":" << (s.endNs - t0) << ",\"allocs\":" << s.allocs
           << ",\"work\":" << s.work << "}";
    }
    os << "],\n\"self_time\":{";
    first = true;
    for (const auto &[name, st] : selfTimes()) {
        os << (first ? "" : ",") << "\n";
        first = false;
        writeJsonString(os, name);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      ":{\"count\":%zu,\"total_ms\":%.6f,\"self_ms\":%.6f}",
                      st.count, double(st.totalNs) / 1e6,
                      double(st.selfNs) / 1e6);
        os << buf;
    }
    os << "}}\n";
}

u64
fnv1a(const std::string &s, u64 h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

namespace
{

double
scalar(const JsonValue *group, const char *name)
{
    if (group == nullptr)
        return 0;
    const JsonValue *scalars = group->find("scalars");
    const JsonValue *v = scalars != nullptr ? scalars->find(name) : nullptr;
    return v != nullptr && v->isNumber() ? v->number : 0;
}

bool
hasScalar(const JsonValue &group, const char *name)
{
    const JsonValue *scalars = group.find("scalars");
    return scalars != nullptr && scalars->find(name) != nullptr;
}

/** The module's StallAccount group ("stall"), or nullptr. */
const JsonValue *
stallGroup(const JsonValue &group)
{
    const JsonValue *groups = group.find("groups");
    return groups != nullptr ? groups->find("stall") : nullptr;
}

double
stallTotal(const JsonValue *stall)
{
    return scalar(stall, "busy") + scalar(stall, "idle") +
           scalar(stall, "stall_cmd") + scalar(stall, "stall_downstream") +
           scalar(stall, "stall_mem") + scalar(stall, "stall_upstream");
}

} // namespace

void
ModelTally::add(const std::string &stats_json)
{
    static const std::regex core_name(R"(.*\.core[0-9]+$)");
    const JsonValue root = beethoven::parseJson(stats_json);
    cycles += scalar(&root, "cycles");
    const JsonValue *groups = root.find("groups");
    if (groups == nullptr)
        return;
    for (const auto &[name, g] : groups->object) {
        const JsonValue *stall = stallGroup(g);
        if (hasScalar(g, "colReads")) {
            dramBeats += scalar(&g, "colReads") + scalar(&g, "colWrites");
            rowHits += scalar(&g, "rowHits");
            rowMisses += scalar(&g, "rowMisses");
            dramBusy += scalar(stall, "busy");
            dramStall += stallTotal(stall) - scalar(stall, "busy") -
                         scalar(stall, "idle");
            dramCycles += stallTotal(stall);
        } else if (name == "noc") {
            if (const JsonValue *trees = g.find("groups")) {
                for (const auto &tree : trees->object)
                    nocFlits += scalar(&tree.second, "flits");
            }
        } else if (name.rfind("noc.", 0) == 0 && stall != nullptr) {
            nocDownstream += scalar(stall, "stall_downstream");
            nocCycles += stallTotal(stall);
        } else if (hasScalar(g, "bytesRead")) {
            readerBytes += scalar(&g, "bytesRead");
            readerStallMem += scalar(stall, "stall_mem");
            readerCycles += stallTotal(stall);
        } else if (hasScalar(g, "bytesWritten")) {
            writerBytes += scalar(&g, "bytesWritten");
        } else if (stall != nullptr && std::regex_match(name, core_name)) {
            coreBusy += scalar(stall, "busy");
            coreCycles += stallTotal(stall);
        }
    }
}

} // namespace perfbench
