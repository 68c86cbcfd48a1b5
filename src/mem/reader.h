/**
 * @file
 * Reader — Beethoven's streaming read primitive (Section II-B).
 *
 * "Readers maximize data throughput by prefetching data and launching
 * parallel read operations to external memory. Readers use on-chip
 * memory to store prefetched data internally."
 *
 * A Reader accepts StreamCommands from its core, splits them into AXI
 * read bursts, keeps several bursts in flight, and — when TLP is
 * enabled — rotates the bursts across distinct AXI IDs so the memory
 * controller may complete them out of order. Returned beats land in a
 * per-transaction reorder buffer and are drained to the core *in
 * address order* through a width converter sized to the configured
 * port width.
 */

#ifndef BEETHOVEN_MEM_READER_H
#define BEETHOVEN_MEM_READER_H

#include <deque>
#include <string>
#include <vector>

#include "axi/axi_types.h"
#include "mem/stream_types.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

/** Reader parameters: the ReadChannelConfig knobs plus queue depths. */
struct ReaderParams : StreamParams
{
    std::size_t cmdQueueDepth = 2;
    std::size_t dataQueueDepth = 8; ///< port-side word queue
};

class Reader : public Module
{
  public:
    /**
     * @param bus      AXI parameters of the memory fabric
     * @param id_base  first AXI ID owned by this reader (fabric grant)
     * @param ar_out   fabric endpoint for read requests
     * @param r_in     fabric endpoint returning this reader's beats
     */
    Reader(Simulator &sim, std::string name, const ReaderParams &params,
           const AxiConfig &bus, u32 id_base,
           TimedQueue<ReadRequest> *ar_out, TimedQueue<ReadBeat> *r_in);

    /** Core-side ports. */
    TimedQueue<StreamCommand> &cmdPort() { return _cmdQ; }
    TimedQueue<StreamWord> &dataPort() { return _dataQ; }

    /** True when no command is active or queued. */
    bool idle() const;

    const ReaderParams &params() const { return _params; }

    /** Cumulative stream bytes delivered to the core. */
    double bytesRead() const { return _statBytesRead->value(); }

    void tick() override;

  private:
    struct Txn
    {
        u64 tag = 0;
        u32 beats = 0;
        u32 startByte = 0;  ///< first valid byte within the burst
        u64 validBytes = 0; ///< bytes of this burst belonging to stream
        std::vector<u8> bytes; ///< received data, in burst order
        u64 drained = 0;       ///< valid bytes already sent to the core
    };

    // Each sub-step reports whether it did work (for stall accounting).
    bool startNextCommand();
    bool issueRequests();
    bool receiveBeats();
    bool drainToCore();

    ReaderParams _params;
    AxiConfig _bus;
    u32 _idBase;

    TimedQueue<ReadRequest> *_arOut;
    TimedQueue<ReadBeat> *_rIn;
    TimedQueue<StreamCommand> _cmdQ;
    TimedQueue<StreamWord> _dataQ;

    bool _active = false;
    Addr _reqAddr = 0;     ///< next stream byte to request
    u64 _reqBytesLeft = 0; ///< stream bytes not yet requested
    u64 _drainBytesLeft = 0;
    u64 _txnSeq = 0;
    Cycle _streamStart = 0; ///< cycle the active command began
    u64 _streamBytes = 0;   ///< length of the active command

    std::deque<Txn> _txns;      ///< in issue (= address) order
    /** The last drained burst's byte buffer, reused by the next issue. */
    std::vector<u8> _spareBytes;
    std::size_t _reservedBeats = 0;
    Bytes _wordStage;           ///< width-converter staging bytes

    StatScalar *_statBytesRead;
    StatScalar *_statTxns;
    StatHistogram *_streamCycles; ///< per-command start -> drain done
    StallAccount _stall;
};

} // namespace beethoven

#endif // BEETHOVEN_MEM_READER_H
