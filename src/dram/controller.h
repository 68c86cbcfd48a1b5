/**
 * @file
 * Cycle-level DRAM memory controller with an AXI4-style front-end.
 *
 * Substitutes for the Xilinx DDR controller + DRAMSim3 stack the paper
 * simulates against (Section II-D). The behaviours the evaluation
 * depends on are modeled directly:
 *
 *  - FR-FCFS column scheduling over banks/bank groups with open-row
 *    state, tRCD/tRP/tRAS/tCAS/tRRD/tFAW constraints;
 *  - a shared bidirectional data bus with a read<->write turnaround
 *    penalty, so long bursts amortize direction switches;
 *  - AXI same-ID ordering: only the *oldest* transaction of each AXI ID
 *    is eligible for scheduling, so single-ID request streams serialize
 *    (the HLS behaviour in Figs. 4/5) while multi-ID streams overlap
 *    (Beethoven's transaction-level parallelism).
 *
 * Reads and writes share one transaction model: each direction keeps a
 * queue of bursts per active AXI ID, oldest first. The scheduler's view
 * (the beats it may issue) is kept between cycles, per bank and
 * direction in (seq, beat) order, together with each bank's first row
 * hit and two bank masks, and changed only by the events that change
 * it, so every pick is a minimum under a total order over the banks
 * that can act. Tags are opaque labels echoed on R/B.
 */

#ifndef BEETHOVEN_DRAM_CONTROLLER_H
#define BEETHOVEN_DRAM_CONTROLLER_H

#include <iosfwd>
#include <list>
#include <map>
#include <vector>

#include "axi/axi_types.h"
#include "axi/timeline.h"
#include "dram/functional_memory.h"
#include "dram/timing.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

class DramController : public Module
{
  public:
    struct Config
    {
        AxiConfig axi;
        DramTiming timing = DramTiming::ddr4_2400();
        DramGeometry geometry;
        unsigned maxOutstandingReads = 64;
        unsigned maxOutstandingWrites = 64;
        std::size_t portDepth = 8; ///< depth of the AXI port queues
        /** Column commands of one transaction visible to the scheduler
         *  at once (the controller's command-queue lookahead). */
        unsigned schedulerWindow = 16;
        /** Write-drain watermark: buffered write beats that trigger a
         *  switch into write-drain mode. Batching writes amortizes the
         *  bus turnaround penalty, as real controllers do. */
        unsigned writeDrainHighWatermark = 48;
        /**
         * Same-ID reorder-slot recycle: cycles after a transaction
         * retires before the *next transaction on the same AXI ID*
         * may be scheduled. Models the response-reorder bookkeeping of
         * real controllers, which cannot pipeline dependent same-ID
         * transactions back to back — the mechanism behind the
         * paper's "latency of memory operations grew tremendously for
         * the HLS memcpy kernel" (Section III-A). Distinct-ID streams
         * (Beethoven's TLP) never pay it.
         */
        unsigned sameIdRecycleCycles = 20;
    };

    /** Throws ConfigError for a geometry mapAddress() cannot map (no
     *  banks, no interleave, a row narrower than the interleave) or
     *  one with more banks than a mask word holds (64). */
    DramController(Simulator &sim, std::string name, const Config &cfg,
                   FunctionalMemory &mem);

    /** AXI slave ports (producers push AR/W flits, pop R/B flits). */
    TimedQueue<ReadRequest> &arPort() { return _arIn; }
    TimedQueue<WriteFlit> &wPort() { return _wIn; }
    TimedQueue<ReadBeat> &rPort() { return _rOut; }
    TimedQueue<WriteResponse> &bPort() { return _bOut; }

    AxiTimeline &timeline() { return _timeline; }
    const Config &config() const { return _cfg; }

    /** Total data beats moved (reads + writes), for utilization stats. */
    u64 beatsServed() const { return _beatsServed; }

    /** Cumulative column commands issued (reads + writes). */
    double
    columnOps() const
    {
        return _statColReads->value() + _statColWrites->value();
    }

    /** Cumulative row activates (row misses open a row). */
    double activates() const { return _statRowMisses->value(); }

    /** Cumulative refresh windows entered. */
    double refreshes() const { return _statRefreshes->value(); }

    /** Dump all in-flight transactions (for hang diagnostics). */
    void dumpInFlight(std::ostream &os) const;

    void tick() override;

  private:
    /** One beat of a burst. */
    struct Beat
    {
        DramCoord coord;     ///< mapped once at accept
        bool issued = false; ///< column command issued
        Cycle readyAt = 0;   ///< read data ready on the bus (reads only)
        Bytes data;          ///< read: captured at issue; write: W data
    };

    /** One read or write burst. */
    struct Txn
    {
        u64 seq = 0;          ///< controller arrival order (FCFS age)
        u64 tag = 0;          ///< opaque label, echoed on R and B
        u32 id = 0;
        Cycle acceptedAt = 0; ///< AR/AW accept, for latency spans
        Addr addr = 0;
        u32 beats = 0;
        /** Beats the scheduler may see: every beat of a read, the W
         *  beats received so far of a write. */
        u32 beatsHere = 0;
        u32 beatsIssued = 0; ///< count of issued column commands
        u32 beatsSent = 0; ///< R beats returned (reads only)
        /** In the scheduler's view: heads its ID's queue and the ID's
         *  recycle gate has opened. */
        bool live = false;
        u32 exposed = 0;   ///< beats in the view (<= schedulerWindow)
        u32 windowEnd = 0; ///< every beat below it is in the view or issued
        std::vector<Beat> beat;
        /** Per-beat write strobes, allocated when the first partial
         *  beat arrives; an empty entry enables every byte. */
        std::vector<std::vector<bool>> strb;

        /** An arrived beat still awaits its column command. */
        bool waiting() const { return beatsIssued < beatsHere; }
    };

    /** The transactions of one AXI ID, oldest first. Only the head may
     *  be scheduled, which is the whole of AXI same-ID ordering. A list,
     *  so a retired burst's node (and its beat storage) moves to
     *  _spareTxns and back without touching the heap. */
    struct IdQueue
    {
        std::list<Txn> txns;
        Cycle readyAt = 0; ///< same-ID recycle gate for the head
        /** Per-ID stall split, made at the ID's first wait: cycles the
         *  head waited on the recycle gate (queueWait) vs. on bank
         *  timing / bus arbitration (bankWait). */
        StatScalar *queueWait = nullptr;
        StatScalar *bankWait = nullptr;
    };

    /** One direction: reads ([0]) or writes ([1]). */
    struct Side
    {
        /** IDs with transactions, ascending; an ID's node moves to
         *  _spareIds when its last transaction retires. */
        std::map<u32, IdQueue> ids;
        std::size_t count = 0; ///< transactions across all IDs
    };

    /** A beat in the scheduler's view: a live burst's arrived beat
     *  that awaits its column command. */
    struct ViewEntry
    {
        u64 seq;     ///< the burst's FCFS age
        u32 beatIdx;
        u64 row;
        Txn *txn;

        bool
        operator<(const ViewEntry &o) const
        {
            return seq < o.seq || (seq == o.seq && beatIdx < o.beatIdx);
        }
    };

    struct BankState
    {
        bool open = false;
        /** Per direction, while this bank's bit in _hit is set: the
         *  index in view of the first beat on the open row. */
        u32 hit[2] = {0, 0};
        u64 row = 0;
        Cycle actReadyAt = 0;
        Cycle colReadyAt = 0;
        Cycle preReadyAt = 0;
        /** The view's beats on this bank, reads ([0]) and writes ([1]),
         *  each sorted by (seq, beat index). */
        std::vector<ViewEntry> view[2];
    };

    /** No bank: the result of a pick that found none. */
    static constexpr unsigned kNoBank = ~0u;

    /** A burst whose recycle gate opens at @c at. */
    struct Gate
    {
        Cycle at;
        bool isWrite;
        Txn *txn;
    };

    /** Outcome of an output-side service attempt. */
    enum class ServiceResult
    {
        None,   ///< nothing to send
        Done,   ///< sent a beat / response
        Blocked ///< had something to send but the port was full
    };

    bool acceptRequests();
    /** Append a burst to its ID's queue (AR, or the AW of a W flit); a
     *  burst on an idle ID is live at once. */
    Txn &accept(bool is_write, u32 id, u64 tag, Addr addr, u32 beats);
    /** Put a live burst's next arrived beats into the view until
     *  schedulerWindow of them are there. */
    void fillWindow(bool is_write, Txn &txn);
    /** Issue the best ready row hit, if any; returns its burst, whose
     *  window the caller refills after the row pass. */
    Txn *scheduleColumn();
    bool scheduleRowCommands();
    ServiceResult sendReadData();
    ServiceResult sendWriteResponses();
    /** Retire the head of @p it's queue after its last R beat or its B
     *  response; the next transaction on the ID pays the recycle. */
    void retire(bool is_write, std::map<u32, IdQueue>::iterator it);

    /** Recompute _writeDrainMode from the view's size per side. */
    void updateDrainMode();
    /** The bank holding the oldest ready row hit in direction @p w, or
     *  kNoBank. */
    unsigned readyHit(bool w) const;
    /** Point bank @p b's hit for direction @p w at the first beat on
     *  the open row at or after index @p from, or clear its bit. */
    void seekHit(unsigned b, bool w, std::size_t from);

    /** Classify the cycle for the stall account. */
    void accountCycle(bool did, ServiceResult rd, ServiceResult wr,
                      bool in_refresh);
    /** Charge each waiting ID's head to its queueWait or bankWait. */
    void trackIdWaits(bool col_issued);

    Config _cfg;
    FunctionalMemory &_mem;

    TimedQueue<ReadRequest> _arIn;
    TimedQueue<WriteFlit> _wIn;
    TimedQueue<ReadBeat> _rOut;
    TimedQueue<WriteResponse> _bOut;

    Side _side[2];            ///< [0] reads, [1] writes
    /** Retired bursts and emptied ID queues, reused by accept(). */
    std::list<Txn> _spareTxns;
    std::vector<std::map<u32, IdQueue>::node_type> _spareIds;
    Txn *_filling = nullptr; ///< write receiving W beats, if any
    u64 _exposedBeats[2] = {0, 0}; ///< beats in the view per side
    /** Gated successors, in the order their gates open. */
    std::vector<Gate> _gates;
    /** Buffered-but-unissued write beats across all transactions,
     *  maintained incrementally (== sum of beatsHere - beatsIssued over
     *  writes) so the per-cycle drain-watermark check is O(1). */
    u64 _pendingWriteBeats = 0;

    std::vector<BankState> _banks;
    u64 _busy = 0;         ///< banks whose view holds any beat
    u64 _hit[2] = {0, 0};  ///< open banks with a row hit, per direction
    /** tFAW: when each of the last four ACTs leaves the window; the
     *  next ACT replaces the oldest, _fawNext. */
    Cycle _fawEnds[4] = {0, 0, 0, 0};
    unsigned _fawNext = 0;
    Cycle _nextActAt = 0; ///< for tRRD
    Cycle _lastColAt = 0;
    bool _lastColWasWrite = false;
    bool _anyColIssued = false;
    u32 _lastColId = 0; ///< AXI ID served by the last column command

    u64 _seqCounter = 0;
    u64 _beatsServed = 0;
    u32 _rrReadId = 0;
    bool _writeDrainMode = false;
    Cycle _nextRefreshAt = 0;
    Cycle _refreshUntil = 0;

    AxiTimeline _timeline;

    StatScalar *_statRowHits;
    StatScalar *_statRowMisses;
    StatScalar *_statColReads;
    StatScalar *_statColWrites;
    StatScalar *_statTurnarounds;
    StatScalar *_statRefreshes;
    /** AR accept -> last R beat; AW accept -> B response. */
    StatHistogram *_latency[2];

    StallAccount _stall;
};

} // namespace beethoven

#endif // BEETHOVEN_DRAM_CONTROLLER_H
