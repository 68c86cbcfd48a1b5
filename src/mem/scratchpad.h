/**
 * @file
 * Scratchpad — Beethoven-managed on-chip memory (Section II-B).
 *
 * "The Scratchpad abstraction is an on-chip memory of the specified
 * size with an initialization routine that uses a Reader to fill the
 * scratchpad with operands from memory."
 *
 * The scratchpad exposes request/response port pairs with configurable
 * read latency, an init command channel that streams rows in from
 * external memory through an internal Reader, and optional
 * intra-core write ports that other cores' IntraCoreMemoryPortOut
 * endpoints feed (Appendix A's IntraCoreMemoryPortIn).
 */

#ifndef BEETHOVEN_MEM_SCRATCHPAD_H
#define BEETHOVEN_MEM_SCRATCHPAD_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/reader.h"
#include "mem/stream_types.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

/** User-visible Scratchpad parameters (the ScratchpadConfig knobs). */
struct ScratchpadParams
{
    unsigned dataWidthBits = 32; ///< row width
    unsigned nDatas = 1024;      ///< number of rows
    unsigned nPorts = 1;         ///< request/response port pairs
    unsigned latency = 1;        ///< read latency in cycles
    bool supportsInit = true;    ///< include the init-from-memory path
    std::size_t portQueueDepth = 4;

    unsigned rowBytes() const { return (dataWidthBits + 7) / 8; }
};

/** A port request: read row, or write row with data. */
struct SpadRequest
{
    u32 row = 0;
    bool write = false;
    Bytes data; ///< rowBytes when write
};

/** A read response. */
struct SpadResponse
{
    u32 row = 0;
    Bytes data;
};

/** Init command: fill rows [rowOffset, rowOffset+rows) from memAddr. */
struct SpadInitCommand
{
    Addr memAddr = 0;
    u32 rowOffset = 0;
    u32 rows = 0;
};

class Scratchpad : public Module
{
  public:
    /**
     * @param init_reader  internal Reader for the init path (may be
     *                     nullptr when supportsInit is false); owned by
     *                     the caller (elaboration), one per scratchpad
     */
    Scratchpad(Simulator &sim, std::string name,
               const ScratchpadParams &params, Reader *init_reader);

    /** Port @p idx request/response queues. */
    TimedQueue<SpadRequest> &reqPort(unsigned idx);
    TimedQueue<SpadResponse> &respPort(unsigned idx);

    /** Init channel (valid only when supportsInit). */
    TimedQueue<SpadInitCommand> &initPort();
    TimedQueue<StreamDone> &initDonePort();

    /** Add an intra-core write port (returns its queue). */
    TimedQueue<SpadRequest> &addIntraCoreWritePort();

    /** Functional access for testing and host-side checking. */
    std::vector<u8> peek(u32 row) const;
    void poke(u32 row, const std::vector<u8> &data);
    u64 peekUint(u32 row) const;
    void pokeUint(u32 row, u64 value);

    const ScratchpadParams &params() const { return _params; }

    /**
     * Cumulative timed row accesses (port reads/writes, intra-core
     * writes, init-row fills). Functional peek/poke are not counted —
     * they model host/test access, not switching activity.
     */
    u64 accesses() const { return _accesses; }

    void tick() override;

  private:
    /**
     * Serve the init path; sets @p token_blocked when a finished init
     * holds its done token because the done queue is full.
     */
    bool serveInit(bool &token_blocked);

    /** Copy @p data, exactly one row of bytes, into @p row. */
    void writeRow(u32 row, std::span<const u8> data);

    /** Copy @p row into @p out. */
    void readRow(u32 row, Bytes &out) const;

    ScratchpadParams _params;
    Reader *_initReader;

    /**
     * nDatas * rowBytes, allocated on the first write; until then
     * every row reads as zeros. SoCs elaborated only to be sized (the
     * fit searches) never fill their rows.
     */
    std::vector<u8> _storage;

    std::vector<std::unique_ptr<TimedQueue<SpadRequest>>> _reqPorts;
    std::vector<std::unique_ptr<TimedQueue<SpadResponse>>> _respPorts;
    std::vector<std::unique_ptr<TimedQueue<SpadRequest>>> _intraPorts;

    std::unique_ptr<TimedQueue<SpadInitCommand>> _initQ;
    std::unique_ptr<TimedQueue<StreamDone>> _initDoneQ;

    bool _initActive = false;
    u32 _initRow = 0;
    u32 _initRowsLeft = 0;
    u64 _accesses = 0;
    StallAccount _stall;
};

} // namespace beethoven

#endif // BEETHOVEN_MEM_SCRATCHPAD_H
