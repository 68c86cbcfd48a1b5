/**
 * @file
 * Writer — Beethoven's streaming write primitive (Section II-B).
 *
 * Accepts StreamCommands and port-width data words from the core,
 * packs the words into bus-width beats, and emits AXI write bursts
 * (rotating across AXI IDs when TLP is enabled, so the controller can
 * retire them out of order). A completion token is delivered on the
 * done port once every burst of a command has been acknowledged.
 */

#ifndef BEETHOVEN_MEM_WRITER_H
#define BEETHOVEN_MEM_WRITER_H

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

/** Writer parameters: the WriteChannelConfig knobs plus queue depths. */
struct WriterParams : StreamParams
{
    std::size_t cmdQueueDepth = 2;
    std::size_t dataQueueDepth = 8;
    std::size_t doneQueueDepth = 2;
};

class Writer : public Module
{
  public:
    Writer(Simulator &sim, std::string name, const WriterParams &params,
           const AxiConfig &bus, u32 id_base,
           TimedQueue<WriteFlit> *w_out,
           TimedQueue<WriteResponse> *b_in);

    /** Core-side ports. */
    TimedQueue<StreamCommand> &cmdPort() { return _cmdQ; }
    TimedQueue<StreamWord> &dataPort() { return _dataQ; }
    TimedQueue<StreamDone> &donePort() { return _doneQ; }

    bool idle() const;

    const WriterParams &params() const { return _params; }

    /** Cumulative stream bytes accepted from the core. */
    double bytesWritten() const { return _statBytesWritten->value(); }

    void tick() override;

  private:
    // Each sub-step reports whether it did work (for stall accounting).
    bool startNextCommand();
    bool acceptWords();
    bool emitFlits();
    bool receiveResponses();

    WriterParams _params;
    AxiConfig _bus;
    u32 _idBase;

    TimedQueue<WriteFlit> *_wOut;
    TimedQueue<WriteResponse> *_bIn;
    TimedQueue<StreamCommand> _cmdQ;
    TimedQueue<StreamWord> _dataQ;
    TimedQueue<StreamDone> _doneQ;

    bool _active = false;
    Addr _cursor = 0;       ///< next stream byte to cover with a burst
    u64 _bytesLeft = 0;     ///< stream bytes not yet packed into bursts
    u64 _bytesAcked = 0;    ///< burst bytes acknowledged (B received)
    u64 _cmdLen = 0;
    u64 _stagedTotal = 0;   ///< bytes of this command accepted so far
    u64 _txnSeq = 0;
    Cycle _streamStart = 0; ///< cycle the active command began

    std::vector<u8> _stage; ///< bytes received from the core, in order

    /** A burst being streamed onto the W channel. */
    struct OpenBurst
    {
        bool valid = false;
        WriteRequest header;
        std::vector<WriteBeat> beats;
        std::size_t nextBeat = 0;
        bool headerSent = false;
    };
    OpenBurst _open;

    /** Outstanding burst sizes keyed by tag (for byte accounting). */
    std::deque<std::pair<u64, u64>> _outstanding; ///< (tag, bytes)

    StatScalar *_statBytesWritten;
    StatScalar *_statTxns;
    StatHistogram *_streamCycles; ///< per-command start -> done token
    StallAccount _stall;
};

} // namespace beethoven

#endif // BEETHOVEN_MEM_WRITER_H
