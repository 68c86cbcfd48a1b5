/**
 * @file
 * SimGraph — the immutable module/queue connectivity IR the static
 * analyzer rules run over (DESIGN.md §5d).
 *
 * Lowered from a Simulator's SimGraphRecord after elaboration: modules
 * become index-addressed nodes and every TimedQueue becomes a directed
 * edge carrying its wake wiring. Plain structs with no back-pointers
 * into the simulator, so rules (and tests) can also build graphs by
 * hand.
 */

#ifndef BEETHOVEN_ANALYSIS_SIM_GRAPH_H
#define BEETHOVEN_ANALYSIS_SIM_GRAPH_H

#include <string>
#include <vector>

#include "base/types.h"
#include "sim/graph_record.h"

namespace beethoven
{

class Simulator;

namespace analysis
{

constexpr int kNoIndex = -1;

/**
 * A provenance site in the IR. Lowering stores the raw file/line pair
 * (zero allocation — the constructor-tail gate builds a SimGraph per
 * elaboration), while hand-built test graphs assign pre-formatted
 * strings; str() renders either form only when a diagnostic or report
 * actually needs the text.
 */
class Site
{
  public:
    Site() = default;
    Site(SourceSite raw) : _raw(raw) {}
    Site(std::string pre) : _pre(std::move(pre)) {}
    Site(const char *pre) : _pre(pre) {}

    std::string str() const { return _pre.empty() ? _raw.str() : _pre; }
    bool empty() const { return _pre.empty() && _raw.file == nullptr; }

  private:
    SourceSite _raw;
    std::string _pre;
};

/** Convenience for message building: "prefix" + site. */
inline std::string
operator+(const std::string &lhs, const Site &rhs)
{
    return lhs + rhs.str();
}

struct GraphModule
{
    std::string name;
    std::string role = "module";
    bool sleepable = false;
    Site sleepSite;
    bool selfWake = false;
    Site selfWakeSite;
};

/** One TimedQueue: producer -> consumer with its wake wiring. */
struct GraphEdge
{
    Site site; ///< queue construction site (file:line)
    std::size_t capacity = 0;
    unsigned latency = 0;
    int consumer = kNoIndex;      ///< declared consumer module
    Site consumerSite;
    bool pushWakeArmed = false;
    int pushWakeTarget = kNoIndex;
    int producer = kNoIndex;      ///< declared producer / pop-wake target
    Site producerSite;
    bool popWakeArmed = false;
};

struct SimGraph
{
    std::vector<GraphModule> modules;
    std::vector<GraphEdge> edges;
};

/** Lower @p sim's registration record into the analyzer IR. */
SimGraph buildSimGraph(const Simulator &sim);

} // namespace analysis
} // namespace beethoven

#endif // BEETHOVEN_ANALYSIS_SIM_GRAPH_H
