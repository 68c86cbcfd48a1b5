/**
 * @file
 * Core-facing memory-stream flit types shared by Readers and Writers.
 */

#ifndef BEETHOVEN_MEM_STREAM_TYPES_H
#define BEETHOVEN_MEM_STREAM_TYPES_H

#include "base/bytes.h"
#include "base/types.h"

namespace beethoven
{

/**
 * The knobs a Reader and a Writer share (a Read/WriteChannelConfig
 * with its platform defaults applied, core/elab_params.h).
 */
struct StreamParams
{
    unsigned dataBytes = 4;   ///< core-facing port width
    unsigned burstBeats = 64; ///< AXI beats per transaction
    unsigned maxInflight = 4; ///< concurrent outstanding transactions
    bool useTlp = true;       ///< distinct AXI IDs per transaction

    /** AXI IDs one endpoint occupies. */
    u32 numIds() const { return useTlp ? maxInflight : 1; }
};

/**
 * A stream request issued by an accelerator core to a Reader/Writer:
 * "stream lenBytes starting at addr". Mirrors the RequestChannel of
 * the paper's getReaderModule()/getWriterModule() accessors.
 */
struct StreamCommand
{
    Addr addr = 0;
    u64 lenBytes = 0;
};

/** One port-width word moving between a core and a Reader/Writer. */
struct StreamWord
{
    Bytes data;

    /** Little-endian value view of the first min(8, size) bytes. */
    u64
    toUint() const
    {
        u64 v = 0;
        const std::size_t n = data.size() < 8 ? data.size() : 8;
        for (std::size_t i = 0; i < n; ++i)
            v |= u64(data[i]) << (8 * i);
        return v;
    }

    static StreamWord
    fromUint(u64 v, unsigned nbytes)
    {
        StreamWord w;
        w.data.resize(nbytes);
        for (unsigned i = 0; i < nbytes && i < 8; ++i)
            w.data[i] = static_cast<u8>(v >> (8 * i));
        return w;
    }
};

/** Completion token emitted by a Writer when a command fully lands. */
struct StreamDone
{
    u64 bytesWritten = 0;
};

} // namespace beethoven

#endif // BEETHOVEN_MEM_STREAM_TYPES_H
