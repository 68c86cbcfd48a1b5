/**
 * @file
 * AXI transaction timeline recorder — regenerates the Fig. 5 style
 * annotated timing diagrams — and the one AXI protocol-legality
 * checker, which the live invariants and the tests both use.
 */

#ifndef BEETHOVEN_AXI_TIMELINE_H
#define BEETHOVEN_AXI_TIMELINE_H

#include <deque>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/types.h"

namespace beethoven
{

/** Which AXI channel an event occurred on. */
enum class AxiChannel { AR, R, AW, W, B };

const char *axiChannelName(AxiChannel c);

/** One observed channel beat. */
struct AxiEvent
{
    Cycle cycle = 0;
    AxiChannel channel = AxiChannel::AR;
    u32 id = 0;
    u64 tag = 0;
    Addr addr = 0;     ///< meaningful for AR/AW
    u32 beats = 0;     ///< burst length, meaningful for AR/AW
    bool last = false; ///< meaningful for R/W
};

/**
 * Records AXI channel activity at a memory port and renders it.
 *
 * The DRAM controller calls record() as it accepts requests and moves
 * data beats; benches render the trace as an ASCII timing diagram and
 * tests replay it through checkAxiProtocol.
 */
class AxiTimeline
{
  public:
    using Observer = std::function<void(const AxiEvent &)>;

    void setEnabled(bool enabled) { _enabled = enabled; }
    bool enabled() const { return _enabled; }

    void
    record(const AxiEvent &e)
    {
        // Observers are live even when event storage is off: the always-
        // on protocol invariant checkers subscribe here without paying
        // the memory cost of a full recorded timeline.
        for (const Observer &obs : _observers) {
            if (obs)
                obs(e);
        }
        if (_enabled)
            _events.push_back(e);
    }

    /**
     * Subscribe to every recorded event (storage-independent).
     * @return a token for removeObserver.
     */
    std::size_t
    addObserver(Observer obs)
    {
        _observers.push_back(std::move(obs));
        return _observers.size() - 1;
    }

    /** Detach the observer registered under @p token. */
    void
    removeObserver(std::size_t token)
    {
        if (token < _observers.size())
            _observers[token] = nullptr;
    }

    const std::vector<AxiEvent> &events() const { return _events; }
    void clear() { _events.clear(); }

    /**
     * Render one row per transaction: request issue point, then data
     * beat activity, then completion, against a cycle axis.
     *
     * @param os        output stream
     * @param width     character width of the time axis
     */
    void render(std::ostream &os, unsigned width = 100) const;

  private:
    bool _enabled = false;
    std::vector<AxiEvent> _events;
    std::vector<Observer> _observers;
};

/**
 * Streaming AXI protocol checker, fed one event at a time so a
 * violation surfaces at the cycle it occurs. Checked rules:
 *  - every R/W beat belongs to an outstanding transaction;
 *  - bursts deliver exactly the requested number of beats, with `last`
 *    on the final beat only;
 *  - transactions on the same ID complete in request order;
 *  - B responses only after the corresponding last W beat;
 *  - with ID bounds set, every AR/R/AW/B ID lies inside them.
 */
class LiveAxiChecker
{
  public:
    /**
     * Bound the legal ID space (0 = unchecked). IDs at or above the
     * bound are reported as leaks — they would alias another
     * endpoint's transactions on real hardware.
     */
    void
    setIdBounds(u32 read_ids, u32 write_ids)
    {
        _readIdBound = read_ids;
        _writeIdBound = write_ids;
    }

    /**
     * Feed the next event. @return empty string if still legal, else
     * a description of the violation (checker state is then stale;
     * callers are expected to abort).
     */
    std::string observe(const AxiEvent &e);

    /** True when no read or write transaction is outstanding. */
    bool quiescent() const;

    std::size_t outstandingReads() const;
    std::size_t outstandingWrites() const;
    u64 eventsSeen() const { return _eventsSeen; }

  private:
    struct Outstanding
    {
        u64 tag;
        u32 beatsExpected;
        u32 beatsSeen = 0;
    };

    // Per-ID FIFOs of outstanding transactions.
    std::map<u32, std::deque<Outstanding>> _reads, _writes;
    // Write bursts whose data is complete but whose B is pending.
    std::map<u64, bool> _writeDataDone;
    u32 _readIdBound = 0, _writeIdBound = 0;
    u64 _eventsSeen = 0;
};

/**
 * Run a recorded stream through a LiveAxiChecker without ID bounds.
 * Returns an empty string when legal, else the first violation.
 */
std::string checkAxiProtocol(const std::vector<AxiEvent> &events);

} // namespace beethoven

#endif // BEETHOVEN_AXI_TIMELINE_H
