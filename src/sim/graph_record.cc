#include "sim/graph_record.h"

#include <cstring>

namespace beethoven
{

namespace
{

/// Countdown for the planted missing-push-wake; 0 means disarmed.
thread_local u64 g_plantMissingPushWake = 0;

/** Repo-relative suffix of @p path ("src/…", "tools/…", …) or basename. */
std::string
trimSourcePath(const char *path)
{
    static const char *const roots[] = {"/src/", "/tools/", "/tests/",
                                        "/bench/", "/examples/"};
    const char *best = nullptr;
    for (const char *root : roots) {
        // Last occurrence wins so build trees nested under src/ still
        // trim to the repo-relative suffix.
        for (const char *p = std::strstr(path, root); p != nullptr;
             p = std::strstr(p + 1, root)) {
            if (best == nullptr || p > best)
                best = p;
        }
    }
    if (best != nullptr)
        return std::string(best + 1);
    const char *slash = std::strrchr(path, '/');
    return std::string(slash != nullptr ? slash + 1 : path);
}

} // namespace

void
plantMissingPushWake(u64 nth)
{
    g_plantMissingPushWake = nth;
}

bool
consumePlantMissingPushWake()
{
    if (g_plantMissingPushWake == 0)
        return false;
    return --g_plantMissingPushWake == 0;
}

std::string
SourceSite::str() const
{
    if (file == nullptr)
        return "";
    return trimSourcePath(file) + ":" + std::to_string(line);
}

const SimGraphRecord::ModuleInfo *
SimGraphRecord::info(const Module *m) const
{
    auto it = _moduleIndex.find(m);
    return it == _moduleIndex.end() ? nullptr : &_modules[it->second];
}

SimGraphRecord::ModuleInfo &
SimGraphRecord::infoFor(Module *m)
{
    auto it = _moduleIndex.find(m);
    if (it != _moduleIndex.end())
        return _modules[it->second];
    _moduleIndex.emplace(m, _modules.size());
    ModuleInfo entry;
    entry.module = m;
    _modules.push_back(entry);
    return _modules.back();
}

SimGraphRecord::QueueEdge &
SimGraphRecord::edgeFor(const void *q)
{
    auto it = _edgeIndex.find(q);
    if (it != _edgeIndex.end())
        return _edges[it->second];
    _edgeIndex.emplace(q, _edges.size());
    QueueEdge e;
    e.queue = q;
    _edges.push_back(std::move(e));
    return _edges.back();
}

void
SimGraphRecord::noteModule(Module *m)
{
    ModuleInfo &info = infoFor(m);
    // A reused address means a transient test module died and a new one
    // took its slot; start its record from scratch.
    info = ModuleInfo{};
    info.module = m;
}

void
SimGraphRecord::setRole(Module *m, const char *role)
{
    infoFor(m).role = role;
}

void
SimGraphRecord::setSleepable(Module *m, SourceSite site)
{
    ModuleInfo &info = infoFor(m);
    info.sleepable = true;
    info.sleepSite = site;
}

void
SimGraphRecord::setSelfWake(Module *m, SourceSite site)
{
    ModuleInfo &info = infoFor(m);
    info.selfWake = true;
    info.selfWakeSite = site;
}

void
SimGraphRecord::registerQueue(const void *q, std::size_t capacity,
                              unsigned latency, SourceSite site)
{
    QueueEdge &e = edgeFor(q);
    e = QueueEdge{};
    e.queue = q;
    e.capacity = capacity;
    e.latency = latency;
    e.site = site;
}

void
SimGraphRecord::recordPushWake(const void *q, Module *consumer, bool armed,
                               SourceSite site)
{
    QueueEdge &e = edgeFor(q);
    if (e.consumer == nullptr) {
        e.consumer = consumer;
        e.consumerSite = site;
    }
    e.pushWakeArmed = armed;
    e.pushWakeTarget = armed ? consumer : nullptr;
}

void
SimGraphRecord::recordPopWake(const void *q, Module *producer, bool armed,
                              SourceSite site)
{
    QueueEdge &e = edgeFor(q);
    if (e.producer == nullptr) {
        e.producer = producer;
        e.producerSite = site;
    }
    e.popWakeArmed = armed;
}

void
SimGraphRecord::declareConsumer(const void *q, Module *consumer,
                                SourceSite site)
{
    QueueEdge &e = edgeFor(q);
    e.consumer = consumer;
    e.consumerSite = site;
}

void
SimGraphRecord::declareProducer(const void *q, Module *producer,
                                SourceSite site)
{
    QueueEdge &e = edgeFor(q);
    e.producer = producer;
    e.producerSite = site;
}

} // namespace beethoven
