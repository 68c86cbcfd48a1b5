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
 */

#ifndef BEETHOVEN_DRAM_CONTROLLER_H
#define BEETHOVEN_DRAM_CONTROLLER_H

#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <unordered_map>
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
    struct ReadTxn
    {
        u64 seq = 0; ///< controller arrival order (FCFS age)
        u64 tag = 0;
        u32 id = 0;
        Cycle acceptedAt = 0; ///< AR accept, for latency spans
        Addr addr = 0;
        u32 beats = 0;
        u32 beatsIssued = 0; ///< count of issued column commands
        u32 firstUnissued = 0;
        u32 beatsSent = 0;
        std::vector<bool> issued;              ///< per-beat issue flag
        std::vector<Cycle> beatReadyAt;        ///< 0 = not yet issued
        std::vector<Bytes> beatData;           ///< captured at issue
        std::vector<DramCoord> beatCoord;      ///< mapped once at accept
    };

    struct WriteTxn
    {
        u64 seq = 0;
        u64 tag = 0;
        u32 id = 0;
        Cycle acceptedAt = 0; ///< AW accept, for latency spans
        Addr addr = 0;
        u32 beats = 0;
        u32 beatsReceived = 0;
        u32 beatsIssued = 0;
        u32 firstUnissued = 0;
        std::vector<bool> issued;
        std::vector<WriteBeat> data;
        std::vector<DramCoord> beatCoord; ///< mapped once at accept
    };

    struct BankState
    {
        bool open = false;
        u64 row = 0;
        Cycle actReadyAt = 0;
        Cycle colReadyAt = 0;
        Cycle preReadyAt = 0;
    };

    /** A schedulable (head-of-ID) beat awaiting a column command. */
    struct Candidate
    {
        bool isWrite = false;
        u64 txnKey = 0; ///< tag-keyed map lookup
        u64 seq = 0;
        u32 beatIdx = 0;
        Addr beatAddr = 0;
        DramCoord coord;
    };

    /** Outcome of an output-side service attempt. */
    enum class ServiceResult
    {
        None,   ///< nothing to send
        Done,   ///< sent a beat / response
        Blocked ///< had something to send but the port was full
    };

    bool acceptRequests();
    bool scheduleColumn();
    bool scheduleRowCommands();
    ServiceResult sendReadData();
    ServiceResult sendWriteResponses();

    /** Recompute _writeDrainMode from candidate existence per side. */
    void updateDrainMode();
    /** One pass over the schedulable-beat set computing everything the
     *  schedulers need (best ready row hit per direction, oldest
     *  candidate per bank, per-bank row-hit flags) without
     *  materializing the candidate list. */
    void scanCandidates();

    /** Classify the cycle and update the per-AXI-ID wait counters. */
    void accountCycle(bool did, ServiceResult rd, ServiceResult wr,
                      bool in_refresh);
    void trackIdWaits(bool col_issued);
    StatScalar &idWaitScalar(bool is_write, u32 id, const char *kind);

    Config _cfg;
    FunctionalMemory &_mem;

    TimedQueue<ReadRequest> _arIn;
    TimedQueue<WriteFlit> _wIn;
    TimedQueue<ReadBeat> _rOut;
    TimedQueue<WriteResponse> _bOut;

    /** In-flight transactions keyed by tag. Hash maps: the hot path
     *  only ever looks tags up (several times per in-flight cycle);
     *  ordered iteration is never needed — per-ID order lives in
     *  _readOrder/_writeOrder, and dumpInFlight sorts for display. */
    std::unordered_map<u64, ReadTxn> _reads;
    std::unordered_map<u64, WriteTxn> _writes;
    std::map<u32, std::deque<u64>> _readOrder;  ///< per-ID tag FIFOs
    std::map<u32, std::deque<u64>> _writeOrder;
    std::map<u32, Cycle> _readIdReadyAt;  ///< same-ID recycle gates
    std::map<u32, Cycle> _writeIdReadyAt;
    u64 _fillingWrite = 0;  ///< tag of write currently receiving W beats
    bool _hasFilling = false;
    /** Buffered-but-unissued write beats across all transactions,
     *  maintained incrementally (== sum of beatsReceived-beatsIssued)
     *  so the per-cycle drain-watermark check is O(1). */
    u64 _pendingWriteBeats = 0;

    std::vector<BankState> _banks;
    /** scanCandidates() products, reused across tick()s so the
     *  scheduler hot path is allocation-free (this module ticks every
     *  in-flight cycle and dominates host time on streaming benches).
     *  _oldestPerBank/_bankHasHit are indexed by bank; _bankValid
     *  gates stale _oldestPerBank entries. */
    std::vector<Candidate> _oldestPerBank;
    std::vector<u8> _bankValid;
    std::vector<u8> _bankHasHit;
    std::vector<const Candidate *> _rowOrdered;
    Candidate _bestRead;  ///< oldest ready row-hit read, if any
    Candidate _bestWrite; ///< oldest ready row-hit write, if any
    bool _hasBestRead = false;
    bool _hasBestWrite = false;
    std::deque<Cycle> _recentActs; ///< for tFAW
    Cycle _nextActAt = 0;          ///< for tRRD
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
    StatHistogram *_readLatency;  ///< AR accept -> last R beat
    StatHistogram *_writeLatency; ///< AW accept -> B response

    StallAccount _stall;
    /** Per-AXI-ID stall split, keyed by (isWrite, id): cycles the ID's
     *  head transaction waited on the same-ID reorder slot (queueWait)
     *  vs. on bank timing / bus arbitration (bankWait). */
    std::map<std::pair<bool, u32>, std::pair<StatScalar *, StatScalar *>>
        _idWaits;
};

} // namespace beethoven

#endif // BEETHOVEN_DRAM_CONTROLLER_H
