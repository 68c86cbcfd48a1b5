/**
 * @file
 * Always-on live correctness invariants for an elaborated SoC.
 *
 * PR-1/2 gave the framework eyes (traces, stall accounts, the hang
 * watchdog); this layer gives it teeth. SocInvariants attaches to an
 * AcceleratorSoc and checks, while the simulation runs:
 *
 *  - AXI protocol legality at the DRAM port (incremental port of
 *    checkAxiProtocol — per-ID ordering, burst beat counts, last
 *    flags, B-after-W);
 *  - no AXI-ID leaks: every bus ID stays inside the ID-space the
 *    elaborator allocated to read/write endpoints;
 *  - one-response-per-command accounting at the MMIO front-end
 *    (responses never outrun xd-flagged command beats);
 *  - NoC flit conservation: command/response beats buffered in the
 *    fabric never exceed what has been injected and not yet drained;
 *  - final quiescence (checkFinal): no outstanding AXI transactions,
 *    empty NoC trees, and every expected response delivered.
 *
 * On violation it dumps stall/in-flight diagnostics via the watchdog
 * dumpers and throws ConfigError with cycle context.
 */

#ifndef BEETHOVEN_VERIFY_INVARIANTS_H
#define BEETHOVEN_VERIFY_INVARIANTS_H

#include <cstddef>
#include <deque>
#include <map>
#include <string>

#include "axi/timeline.h"
#include "base/types.h"
#include "sim/simulator.h"

namespace beethoven
{

class AcceleratorSoc;
struct RoccCommand;
struct RoccResponse;

/**
 * Incremental AXI protocol checker: the streaming equivalent of
 * checkAxiProtocol (axi/timeline.h), fed one event at a time so
 * violations surface at the cycle they occur instead of post-mortem.
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

    // Per-ID FIFOs of outstanding transactions (same model as the
    // post-hoc checker).
    std::map<u32, std::deque<Outstanding>> _reads, _writes;
    // Write bursts whose data is complete but whose B is pending.
    std::map<u64, bool> _writeDataDone;
    u32 _readIdBound = 0, _writeIdBound = 0;
    u64 _eventsSeen = 0;
};

/**
 * The composite live invariant for one SoC. Construction subscribes
 * to the DRAM timeline and the MMIO command/response hooks and
 * registers with the SoC's Simulator; destruction detaches cleanly.
 */
class SocInvariants : public Invariant
{
  public:
    explicit SocInvariants(AcceleratorSoc &soc);
    ~SocInvariants() override;

    SocInvariants(const SocInvariants &) = delete;
    SocInvariants &operator=(const SocInvariants &) = delete;

    // Invariant interface: periodic cross-checks (response ledger
    // consistency, NoC occupancy sanity).
    void check(Cycle cycle) override;
    const char *invariantName() const override { return "soc-invariants"; }

    /**
     * End-of-workload quiescence check. Call after every response has
     * been collected: asserts no outstanding AXI transactions, empty
     * NoC fabric trees, and a balanced command/response ledger.
     */
    void checkFinal();

    u64 responsesSeen() const { return _respsSeen; }
    u64 axiEventsSeen() const { return _axi.eventsSeen(); }

    /**
     * Test-only hook: inject a synthetic AXI event into the live
     * checker as if the DRAM controller had recorded it. Used by the
     * fuzz harness's planted-violation fixture to prove the
     * catch/shrink/replay loop works end to end.
     */
    void injectAxiEvent(const AxiEvent &e) { onAxiEvent(e); }

  private:
    void onAxiEvent(const AxiEvent &e);
    void onCommand(const RoccCommand &cmd);
    void onResponse(const RoccResponse &resp);

    /** Dump diagnostics and throw ConfigError with cycle context. */
    [[noreturn]] void violation(const std::string &what);

    AcceleratorSoc &_soc;
    LiveAxiChecker _axi;
    std::size_t _timelineToken = 0;

    /**
     * Response ledger: per routing key (systemId<<16 | coreId<<5 | rd),
     * xd-flagged command beats seen minus responses seen. A negative
     * balance means a response arrived that no command asked for.
     */
    std::map<u64, i64> _ledger;
    u64 _xdSeen = 0;
    u64 _respsSeen = 0;
};

} // namespace beethoven

#endif // BEETHOVEN_VERIFY_INVARIANTS_H
