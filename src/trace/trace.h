/**
 * @file
 * Event tracing for the simulation platform (Section II-D: the
 * simulation platform is where users "debug and predict performance"
 * of a composed SoC).
 *
 * A TraceSink records typed events — duration spans, instants, and
 * counter samples — keyed by (category, track, cycle) and serializes
 * them as Chrome trace_event JSON (loadable in chrome://tracing or
 * Perfetto), a compact text summary, and an aggregated cycle-budget
 * profile.
 *
 * Instrumented modules reach the sink through Simulator::trace(),
 * which is nullptr unless a bench or test attaches one; every call
 * site guards with `if (TraceSink *ts = sim().trace())` so the
 * un-traced hot path costs one pointer load and branch.
 *
 * Tracks model Perfetto threads: one lane per module (a reader, an
 * AXI ID). Each attach-point can open a new process scope
 * (beginProcess) so multiple simulated SoCs in one bench render as
 * separate process groups instead of overlapping lanes.
 */

#ifndef BEETHOVEN_TRACE_TRACE_H
#define BEETHOVEN_TRACE_TRACE_H

#include <initializer_list>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"

namespace beethoven
{

class TraceSink
{
  public:
    TraceSink();

    /**
     * Open a new process scope: subsequent events land under a fresh
     * Chrome-trace pid labeled @p name. Benches call this once per
     * simulated SoC so runs do not overlay each other's tracks.
     */
    void beginProcess(const std::string &name);

    /** A key/value annotation attached to a span or instant. */
    using Arg = std::pair<const char *, u64>;

    /**
     * Record a completed duration span on @p track.
     * Spans are recorded at completion because the emitting module
     * knows the begin cycle from its own transaction state.
     */
    void span(const char *category, const std::string &name,
              const std::string &track, Cycle begin, Cycle end,
              std::initializer_list<Arg> args = {});

    /** Record a zero-duration marker. */
    void instant(const char *category, const std::string &name,
                 const std::string &track, Cycle at,
                 std::initializer_list<Arg> args = {});

    /** Record one sample of a named counter series. */
    void counter(const char *category, const std::string &name,
                 Cycle at, double value);

    std::size_t numEvents() const { return _events.size(); }
    std::size_t droppedEvents() const { return _dropped; }

    /** Cap in-memory events; further records are counted but dropped. */
    void setMaxEvents(std::size_t n) { _maxEvents = n; }

    /** True if at least one event of @p category was recorded. */
    bool hasCategory(const std::string &category) const
    {
        return _categories.count(category) != 0;
    }

    /**
     * Serialize as Chrome trace_event JSON: an object with a
     * "traceEvents" array of "X" (span), "i" (instant), "C" (counter)
     * phases plus process_name / thread_name metadata. Cycles map 1:1
     * onto the viewer's microsecond timestamps.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Compact text summary: event counts per category and track. */
    void writeSummary(std::ostream &os) const;

    /**
     * Cycle-budget profile: one row per track with span count, mean,
     * p95 and max duration, and percent of the traced cycle range.
     */
    void writeProfile(std::ostream &os) const;

  private:
    enum class Kind { Span, Instant, Counter };

    struct Event
    {
        Kind kind;
        u32 pid = 0;
        u32 tid = 0; ///< unused for counters
        Cycle start = 0;
        Cycle dur = 0;     ///< spans only
        double value = 0;  ///< counters only
        const char *cat = "";
        std::string name;
        std::vector<std::pair<std::string, u64>> args;
    };

    bool admit();
    u32 trackId(const std::string &name);

    u32 _pid = 0;
    u32 _nextTid = 1;
    std::map<std::string, u32> _tracks; ///< current process only
    /** (pid, tid) -> track name, for thread_name metadata. */
    std::vector<std::pair<std::pair<u32, u32>, std::string>> _trackNames;
    std::vector<std::string> _processNames;
    std::set<std::string> _categories;
    std::vector<Event> _events;
    std::size_t _maxEvents = 4'000'000;
    std::size_t _dropped = 0;
};

} // namespace beethoven

#endif // BEETHOVEN_TRACE_TRACE_H
