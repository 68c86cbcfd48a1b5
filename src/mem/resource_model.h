/**
 * @file
 * Resource estimation for Beethoven-generated logic.
 *
 * Estimates are calibrated against the per-module utilization the
 * paper reports in Table II (a 23-core A3 design on a VU9P): a Reader
 * costs ~600 CLBs / 2.3K LUTs / 2.6K FFs plus its prefetch memory, and
 * the whole interconnect lands near 17% of the device CLBs for 92
 * memory interfaces. The memory blocks themselves (BRAM/URAM/SRAM) are
 * computed exactly by the memory compiler, not estimated here.
 */

#ifndef BEETHOVEN_MEM_RESOURCE_MODEL_H
#define BEETHOVEN_MEM_RESOURCE_MODEL_H

#include "axi/axi_types.h"
#include "floorplan/resources.h"
#include "mem/reader.h"
#include "mem/scratchpad.h"
#include "mem/writer.h"
#include "noc/tree.h"

namespace beethoven
{

/** Control/datapath logic of a Reader (excluding its prefetch RAM). */
ResourceVec readerLogicResources(const StreamParams &params,
                                 const AxiConfig &bus);

/** Prefetch buffer geometry of a Reader (for the memory compiler). */
struct MemoryRequest
{
    unsigned widthBits = 0;
    unsigned depth = 0;
    unsigned readPorts = 1;
};
MemoryRequest readerBufferRequest(const StreamParams &params,
                                  const AxiConfig &bus);

/** Control/datapath logic of a Writer (excluding its stage RAM). */
ResourceVec writerLogicResources(const StreamParams &params,
                                 const AxiConfig &bus);
MemoryRequest writerBufferRequest(const StreamParams &params,
                                  const AxiConfig &bus);

/** Port muxing / init sequencing around a Scratchpad's cells. */
ResourceVec scratchpadControlResources(const ScratchpadParams &params);

/** One fabric node moving flits of @p flit_bytes per cycle. */
ResourceVec nocNodeResources(unsigned flit_bytes, unsigned fanin);

/** Whole-tree estimate from construction stats. */
ResourceVec treeResources(const TreeStats &stats, unsigned flit_bytes,
                          unsigned fanout);

/** The MMIO command/response front-end. */
ResourceVec mmioFrontendResources();

} // namespace beethoven

#endif // BEETHOVEN_MEM_RESOURCE_MODEL_H
