/**
 * @file
 * The Fig. 4/5 comparison kernels: memcpy engines that drive the DRAM
 * controller's AXI port directly, reproducing the memory-access
 * patterns the paper attributes to each methodology.
 *
 *  - Pure-HDL (Section III-A): "overlaps read and write transactions
 *    but only uses a single AXI ID and emits one transaction per ID
 *    concurrently", with 64-beat bursts.
 *  - Vitis HLS: "although our HLS implementation is annotated to use
 *    64-beat bursts, the compiled output only used 16-beat bursts" and
 *    "emits all its transactions on the same AXI ID" — several
 *    concurrent transactions, one ordering stream.
 *
 * Both are expressed by one parameterized engine so the experiment is
 * a config sweep, mirroring how the Beethoven variant is a config
 * sweep of MemcpyCore.
 */

#ifndef BEETHOVEN_BASELINES_RAW_MEMCPY_H
#define BEETHOVEN_BASELINES_RAW_MEMCPY_H

#include <deque>
#include <map>
#include <vector>

#include "axi/axi_types.h"
#include "dram/controller.h"
#include "sim/module.h"
#include "sim/queue.h"

namespace beethoven
{

class RawAxiMemcpy : public Module
{
  public:
    struct Params
    {
        unsigned burstBeats = 64;
        unsigned maxInflightReads = 1;
        unsigned maxInflightWrites = 1;
        bool distinctIds = false; ///< rotate IDs across transactions
        u32 readIdBase = 0;
        u32 writeIdBase = 0;
    };

    RawAxiMemcpy(Simulator &sim, std::string name, const Params &params,
                 DramController &ctrl);

    /** Begin copying len bytes (bus-beat aligned) from src to dst. */
    void start(Addr src, Addr dst, u64 len_bytes);

    bool done() const;

    void tick() override;

  private:
    void issueReads();
    void receiveReadData();
    void issueWrites();
    void receiveWriteResponses();

    Params _params;
    DramController &_ctrl;
    unsigned _busBytes;

    Addr _src = 0;
    Addr _dst = 0;
    u64 _len = 0;
    bool _active = false;

    u64 _readIssuedBytes = 0;
    u64 _readReceivedPrefix = 0; ///< contiguous bytes buffered from 0
    u64 _writeIssuedBytes = 0;
    u64 _writeAckedBytes = 0;
    u64 _txnSeqRead = 0;
    u64 _txnSeqWrite = 0;

    std::vector<u8> _buffer; ///< staging for the whole copy
    /** Outstanding reads: tag -> (start offset, bytes received). */
    struct PendingRead
    {
        u64 offset;
        u64 received = 0;
        u64 bytes;
    };
    std::map<u64, PendingRead> _reads;
    std::map<u64, u64> _writeBytes;  ///< tag -> burst bytes
    std::vector<bool> _beatReceived; ///< per-beat arrival bitmap

    /** Burst currently streaming onto the W channel. */
    bool _wOpen = false;
    WriteRequest _wHeader;
    u64 _wOffset = 0;
    u32 _wBeatsLeft = 0;
    bool _wHeaderSent = false;
};

} // namespace beethoven

#endif // BEETHOVEN_BASELINES_RAW_MEMCPY_H
