/**
 * @file
 * AXI4-style transaction types used between Beethoven's memory fabric
 * and the external memory controller.
 *
 * The model is beat-accurate: read data and write data move through the
 * fabric one bus-width beat per cycle, and the controller enforces the
 * AXI ordering rule that matters for the paper's evaluation — beats of
 * one burst are returned in order, and *transactions sharing an AXI ID
 * are returned in request order* while transactions on different IDs
 * may complete out of order (Section III-A, Figs. 4 and 5).
 */

#ifndef BEETHOVEN_AXI_AXI_TYPES_H
#define BEETHOVEN_AXI_AXI_TYPES_H

#include <vector>

#include "base/bytes.h"
#include "base/types.h"

namespace beethoven
{

/** Static parameters of one AXI memory port. */
struct AxiConfig
{
    unsigned addrBits = 34;      ///< physical address width
    unsigned dataBytes = 64;     ///< bus width per beat (bytes)
    unsigned idBits = 8;         ///< transaction ID width
    unsigned maxBurstBeats = 64; ///< maximum beats per burst

    u64 numIds() const { return u64(1) << idBits; }
};

/** AR-channel flit: a read-burst request. */
struct ReadRequest
{
    u32 id = 0;     ///< AXI ID (selects the ordering stream)
    Addr addr = 0;  ///< byte address, beat-aligned
    u32 beats = 1;  ///< burst length in bus beats
    u64 tag = 0;    ///< Simulator::nextTag label (not AXI)
};

/** R-channel flit: one beat of read data. */
struct ReadBeat
{
    u32 id = 0;
    Bytes data;           ///< dataBytes bytes
    bool last = false;    ///< final beat of the burst
    u64 tag = 0;
};

/** AW-channel flit: a write-burst request. */
struct WriteRequest
{
    u32 id = 0;
    Addr addr = 0;
    u32 beats = 1;
    u64 tag = 0;
};

/** W-channel flit: one beat of write data. */
struct WriteBeat
{
    Bytes data;             ///< dataBytes bytes
    std::vector<bool> strb; ///< per-byte write enable (empty = all on)
    bool last = false;
};

/** B-channel flit: write-burst completion. */
struct WriteResponse
{
    u32 id = 0;
    u64 tag = 0;
};

/**
 * Combined AW+W flit for fabric transport.
 *
 * AXI4 removed WID, so write-data bursts from different masters must
 * not interleave on a shared W channel; carrying the header with the
 * first beat lets fabric arbiters lock a burst end-to-end.
 */
struct WriteFlit
{
    bool hasHeader = false;
    WriteRequest header; ///< valid when hasHeader
    WriteBeat beat;
};

/**
 * Fabric arbiter lock policy keeping write bursts contiguous: a header
 * flit locks the arbiter to its input for the burst's remaining beats.
 */
struct WriteFlitLock
{
    unsigned
    operator()(const WriteFlit &f) const
    {
        return f.hasHeader ? f.header.beats - 1 : 0;
    }
};

} // namespace beethoven

#endif // BEETHOVEN_AXI_AXI_TYPES_H
