#include "core/elab_params.h"

#include <algorithm>

#include "mem/resource_model.h"

namespace beethoven
{

StreamParams
spadInitStreamParams(const ScratchpadConfig &cfg, const Platform &platform)
{
    ReadChannelConfig init;
    init.dataBytes = (cfg.dataWidthBits + 7) / 8;
    return resolveStreamParams(init, platform);
}

ScratchpadParams
scratchpadParams(const ScratchpadConfig &cfg)
{
    ScratchpadParams p;
    p.dataWidthBits = cfg.dataWidthBits;
    p.nDatas = cfg.nDatas;
    p.nPorts = cfg.nPorts;
    p.latency = cfg.latency;
    p.supportsInit = cfg.supportsInit;
    return p;
}

ScratchpadParams
scratchpadParams(const IntraCoreMemoryPortInConfig &cfg)
{
    ScratchpadParams p;
    p.dataWidthBits = cfg.dataWidthBits;
    p.nDatas = cfg.nDatas;
    p.nPorts = std::max(1u, cfg.nChannels);
    p.latency = cfg.latency;
    p.supportsInit = false;
    return p;
}

ResourceVec
estimateCoreLogic(const AcceleratorSystemConfig &sys,
                  const Platform &platform, const AxiConfig &bus)
{
    ResourceVec est = sys.kernelResources;
    if (platform.isAsic()) {
        // On ASIC targets the kernel's FPGA block-RAM estimates map to
        // compiled SRAM macros instead.
        est.sramMacros += est.bram + est.uram;
        est.bram = 0;
        est.uram = 0;
    }
    for (const auto &r : sys.readChannels) {
        est += readerLogicResources(resolveStreamParams(r, platform),
                                    bus) *
               static_cast<double>(r.nChannels);
    }
    for (const auto &w : sys.writeChannels) {
        est += writerLogicResources(resolveStreamParams(w, platform),
                                    bus) *
               static_cast<double>(w.nChannels);
    }
    for (const auto &sp : sys.scratchpads) {
        est += scratchpadControlResources(scratchpadParams(sp));
        if (sp.supportsInit) {
            est += readerLogicResources(
                spadInitStreamParams(sp, platform), bus);
        }
    }
    for (const auto &pin : sys.intraMemoryIns)
        est += scratchpadControlResources(scratchpadParams(pin));
    return est;
}

} // namespace beethoven
