/**
 * @file
 * Registration-time record of the simulation connectivity graph.
 *
 * Every Simulator owns one SimGraphRecord. Modules, timed queues, wake
 * registrations and sleep declarations all note themselves here as
 * they are constructed, with std::source_location provenance. The
 * record is pure metadata: it is never consulted on the simulation
 * fast path. The graph rules in src/analysis/ read it as it stands and
 * prove the wake/sleep contract before a single cycle runs (DESIGN.md
 * §5d).
 */

#ifndef BEETHOVEN_SIM_GRAPH_RECORD_H
#define BEETHOVEN_SIM_GRAPH_RECORD_H

#include <source_location>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.h"

namespace beethoven
{

class Module;

/**
 * Zero-allocation capture of a registration site. Elaboration runs a
 * SoC constructor per composition (several per bench process), so the
 * record stores the raw file/line pair and only formats the
 * "src/file.cc:42" string when a diagnostic names the site.
 */
struct SourceSite
{
    const char *file = nullptr;
    unsigned line = 0;

    SourceSite() = default;
    SourceSite(const std::source_location &loc)
        : file(loc.file_name()), line(loc.line())
    {
    }

    /** Repo-relative "src/file.cc:42"; "" when never recorded. */
    std::string str() const;
};

/**
 * Arm the wake-violation plant: the @p nth subsequent call to
 * TimedQueue::setWakeOnPush records the consumer declaration but skips
 * arming the wake — a deliberately planted lost-wake bug that the
 * static analyzer must catch (BTH100). Auto-disarms after firing;
 * 0 disarms immediately. Used by soc_fuzz --plant-wake-violation and
 * the analysis tests; never set in production paths. Per thread, like
 * the elaboration it targets.
 */
void plantMissingPushWake(u64 nth);

/** Consume one plant tick; true when this registration is suppressed. */
bool consumePlantMissingPushWake();

/**
 * The per-Simulator registration record. Keys queue edges by the
 * queue's address and modules by Module*; both are stable for the
 * lifetime of a composed SoC. Re-registration at a reused address
 * resets the entry (only transient test fixtures do this).
 */
class SimGraphRecord
{
  public:
    struct QueueEdge
    {
        const void *queue = nullptr;
        SourceSite site;        ///< where the queue was constructed
        std::size_t capacity = 0;
        unsigned latency = 0;
        Module *consumer = nullptr;   ///< declared consumer (if any)
        SourceSite consumerSite;
        bool pushWakeArmed = false;
        Module *pushWakeTarget = nullptr;
        Module *producer = nullptr;   ///< declared producer / pop-wake target
        SourceSite producerSite;
        bool popWakeArmed = false;
    };

    struct ModuleInfo
    {
        Module *module = nullptr;
        const char *role = "module";
        bool sleepable = false;
        SourceSite sleepSite;
        bool selfWake = false;
        SourceSite selfWakeSite;
    };

    void noteModule(Module *m);
    void setRole(Module *m, const char *role);
    void setSleepable(Module *m, SourceSite site);
    void setSelfWake(Module *m, SourceSite site);

    void registerQueue(const void *q, std::size_t capacity,
                       unsigned latency, SourceSite site);
    void recordPushWake(const void *q, Module *consumer, bool armed,
                        SourceSite site);
    void recordPopWake(const void *q, Module *producer, bool armed,
                       SourceSite site);
    /** Record-only consumer declaration (poll-driven consumers). */
    void declareConsumer(const void *q, Module *consumer, SourceSite site);
    /** Record-only producer declaration. */
    void declareProducer(const void *q, Module *producer, SourceSite site);

    const std::vector<ModuleInfo> &modules() const { return _modules; }
    const std::vector<QueueEdge> &edges() const { return _edges; }

    /** @p m's entry; nullptr for a module this record never saw. */
    const ModuleInfo *info(const Module *m) const;

  private:
    ModuleInfo &infoFor(Module *m);
    QueueEdge &edgeFor(const void *q);

    std::vector<ModuleInfo> _modules;
    std::vector<QueueEdge> _edges;
    std::unordered_map<const Module *, std::size_t> _moduleIndex;
    std::unordered_map<const void *, std::size_t> _edgeIndex;
};

} // namespace beethoven

#endif // BEETHOVEN_SIM_GRAPH_RECORD_H
