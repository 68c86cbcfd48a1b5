#include "mem/resource_model.h"

namespace beethoven
{

namespace
{
// CLBs on UltraScale+ hold 8 LUTs / 16 FFs, but placement never packs
// them fully; Table II shows roughly one CLB per 6-7 LUTs in practice.
constexpr double lutsPerClb = 6.6;

ResourceVec
fromLogic(double lut, double ff)
{
    ResourceVec r;
    r.lut = lut;
    r.ff = ff;
    r.clb = lut / lutsPerClb;
    return r;
}
} // namespace

ResourceVec
readerLogicResources(const StreamParams &params, const AxiConfig &bus)
{
    // AR generation + reorder tracking + width conversion. Width
    // conversion dominates when the port is wide; tracking grows with
    // the number of inflight transactions.
    const double conv = 6.0 * (params.dataBytes + bus.dataBytes);
    const double track = 180.0 * params.maxInflight;
    const double base = 700.0;
    return fromLogic(base + conv + track,
                     1.15 * (base + conv + track));
}

MemoryRequest
readerBufferRequest(const StreamParams &params, const AxiConfig &bus)
{
    MemoryRequest req;
    req.widthBits = bus.dataBytes * 8;
    req.depth = params.maxInflight * params.burstBeats;
    req.readPorts = 1;
    return req;
}

ResourceVec
writerLogicResources(const StreamParams &params, const AxiConfig &bus)
{
    const double conv = 6.0 * (params.dataBytes + bus.dataBytes);
    const double track = 140.0 * params.maxInflight;
    const double base = 520.0;
    return fromLogic(base + conv + track,
                     1.2 * (base + conv + track));
}

MemoryRequest
writerBufferRequest(const StreamParams &params, const AxiConfig &bus)
{
    MemoryRequest req;
    req.widthBits = bus.dataBytes * 8;
    // The stage only needs one burst plus slack.
    req.depth = 2 * params.burstBeats;
    req.readPorts = 1;
    return req;
}

ResourceVec
scratchpadControlResources(const ScratchpadParams &params)
{
    // Address decode, per-port muxing and the init sequencer.
    const double per_port = 40.0 + params.dataWidthBits * 0.8;
    const double init = params.supportsInit ? 120.0 : 0.0;
    const double lut = per_port * params.nPorts + init;
    return fromLogic(lut, lut * 1.1);
}

ResourceVec
nocNodeResources(unsigned flit_bytes, unsigned fanin)
{
    // A round-robin arbiter + register slice per node.
    const double lut = 30.0 + 2.2 * flit_bytes * 8 * 0.25 +
                       12.0 * fanin;
    const double ff = flit_bytes * 8 + 16.0;
    return fromLogic(lut, ff);
}

ResourceVec
treeResources(const TreeStats &stats, unsigned flit_bytes,
              unsigned fanout)
{
    ResourceVec total = nocNodeResources(flit_bytes, fanout) *
                        static_cast<double>(stats.nodes);
    // Each link is a register slice; SLR crossings are deeper.
    ResourceVec link = fromLogic(8.0, flit_bytes * 8.0);
    total += link * static_cast<double>(stats.links);
    total += link * static_cast<double>(3 * stats.slrCrossings);
    return total;
}

ResourceVec
mmioFrontendResources()
{
    return fromLogic(900.0, 1300.0);
}

} // namespace beethoven
