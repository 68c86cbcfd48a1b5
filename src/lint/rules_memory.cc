/**
 * @file
 * Memory-layer lint rules (BTH020-BTH023): width convertibility between
 * core-facing channels and the platform DRAM bus, on-chip memory
 * geometry, and the 80 %-spill-rule feasibility of a core's compiled
 * memory footprint against per-SLR capacity.
 */

#include <algorithm>

#include "base/log.h"
#include "core/elab_params.h"
#include "lint/lint.h"
#include "mem/resource_model.h"

namespace beethoven::lint
{

namespace
{

std::string
streamPath(const CompositionModel &m, const ResolvedStream &st)
{
    return systemPath(m, st.systemIdx) + "." + st.channel;
}

void
ruleWidthConvertibility(const CompositionModel &m, DiagnosticReport &rep)
{
    for (const ResolvedStream &st : m.streams) {
        if (st.params.dataBytes == 0) {
            rep.add("BTH020", streamPath(m, st),
                    "channel declares a zero-byte data width");
            continue;
        }
        // The fabric converts widths by splitting or packing beats;
        // that requires an integral ratio in one direction. A 64-byte
        // channel on a 16-byte bus is fine (4 bus beats per channel
        // beat) — a 24-byte channel on a 16-byte bus is not.
        const unsigned wide = std::max(st.params.dataBytes, m.bus.dataBytes);
        const unsigned narrow = std::min(st.params.dataBytes, m.bus.dataBytes);
        if (narrow == 0 || wide % narrow != 0) {
            rep.add("BTH020", streamPath(m, st),
                    "channel width of " + std::to_string(st.params.dataBytes) +
                        " bytes is not convertible to the " +
                        std::to_string(m.bus.dataBytes) +
                        "-byte DRAM bus")
                .fixit = "use a power-of-two multiple or divisor of "
                         "the bus width";
        }
    }
}

void
ruleMemoryGeometry(const CompositionModel &m, DiagnosticReport &rep)
{
    const auto &systems = m.config->systems;
    for (std::size_t s = 0; s < systems.size(); ++s) {
        const auto &sys = systems[s];
        const std::string base = systemPath(m, s);
        for (const auto &sp : sys.scratchpads) {
            if (sp.dataWidthBits == 0 || sp.nDatas == 0 ||
                sp.nPorts == 0) {
                rep.add("BTH021", base + "." + sp.name,
                        "scratchpad geometry " +
                            std::to_string(sp.dataWidthBits) + "b x " +
                            std::to_string(sp.nDatas) + " with " +
                            std::to_string(sp.nPorts) +
                            " ports is zero-sized");
            }
        }
        for (const auto &pin : sys.intraMemoryIns) {
            if (pin.dataWidthBits == 0 || pin.nDatas == 0) {
                rep.add("BTH021", base + "." + pin.name,
                        "intra-core memory geometry " +
                            std::to_string(pin.dataWidthBits) + "b x " +
                            std::to_string(pin.nDatas) +
                            " is zero-sized");
            }
        }
    }
}

void
ruleBurstLimit(const CompositionModel &m, DiagnosticReport &rep)
{
    for (const ResolvedStream &st : m.streams) {
        if (st.params.burstBeats == 0) {
            rep.add("BTH023", streamPath(m, st),
                    "resolved burst length of zero beats");
        } else if (st.params.burstBeats > m.bus.maxBurstBeats) {
            rep.add("BTH023", streamPath(m, st),
                    "burst of " + std::to_string(st.params.burstBeats) +
                        " beats exceeds the bus limit of " +
                        std::to_string(m.bus.maxBurstBeats))
                .fixit = "lower burstBeats or leave it zero to take "
                         "the platform default";
        }
    }
}

/**
 * Memory-block fields of @p r against a family capacity budget,
 * mirroring Floorplanner::utilizationAfter's derated view.
 */
bool
memoryFits(const ResourceVec &r, const SlrDescriptor &slr,
           MemoryCellKind kind, double derate)
{
    const ResourceVec avail = slr.available();
    switch (kind) {
      case MemoryCellKind::Bram:
        return r.bram <= avail.bram * derate;
      case MemoryCellKind::Uram:
        return r.uram <= avail.uram * derate;
      case MemoryCellKind::AsicSram:
        return r.sramMacros <= avail.sramMacros * derate;
    }
    return false;
}

void
ruleScratchpadCapacity(const CompositionModel &m, DiagnosticReport &rep)
{
    // One core's compiled memory footprint (scratchpads, prefetch and
    // stage buffers, intra-core RAMs) must fit the derated memory
    // capacity of at least one SLR in at least one cell family, or the
    // spill rule (Section II-B) has nowhere left to spill.
    const MemoryCellKind pref = m.preferredKind;
    const MemoryCellKind alt = pref == MemoryCellKind::Bram
                                   ? MemoryCellKind::Uram
                                   : MemoryCellKind::Bram;
    const bool have_alt = pref != MemoryCellKind::AsicSram &&
                          !m.cellLib.shapesOf(alt).empty();

    const auto &systems = m.config->systems;
    for (std::size_t s = 0; s < systems.size(); ++s) {
        const auto &sys = systems[s];
        ResourceVec pref_demand, alt_demand;
        std::string worst;
        double worst_blocks = 0.0;
        bool compiled_any = false;

        auto account = [&](const std::string &name, unsigned width_bits,
                           unsigned depth, unsigned ports) {
            if (width_bits == 0 || depth == 0 || ports == 0)
                return; // BTH021's problem; nothing to compile
            try {
                const CompiledMemory p = compileMemory(
                    m.cellLib, pref, width_bits, depth, ports);
                pref_demand += p.resources;
                if (have_alt) {
                    alt_demand += compileMemory(m.cellLib, alt,
                                                width_bits, depth, ports)
                                      .resources;
                }
                compiled_any = true;
                const double blocks = p.resources.bram +
                                      p.resources.uram +
                                      p.resources.sramMacros;
                if (blocks > worst_blocks) {
                    worst_blocks = blocks;
                    worst = name;
                }
            } catch (const ConfigError &) {
                // No shapes of this family in the library; the memory
                // compiler will report it during elaboration.
            }
        };

        for (const auto &sp : sys.scratchpads)
            account(sp.name, sp.dataWidthBits, sp.nDatas, sp.nPorts);
        for (const auto &pin : sys.intraMemoryIns) {
            const ScratchpadParams p = scratchpadParams(pin);
            account(pin.name, p.dataWidthBits, p.nDatas, p.nPorts);
        }
        for (const ResolvedStream &st : m.streams) {
            const StreamParams &p = st.params;
            if (st.systemIdx != s || p.dataBytes == 0 ||
                p.burstBeats == 0 || p.burstBeats > m.bus.maxBurstBeats)
                continue; // skip streams BTH020/BTH023 already flagged
            const MemoryRequest req =
                st.isWriter ? writerBufferRequest(p, m.bus)
                            : readerBufferRequest(p, m.bus);
            account(st.channel + (st.isWriter ? " stage buffer"
                                              : " prefetch buffer"),
                    req.widthBits, req.depth, req.readPorts);
        }

        if (!compiled_any)
            continue;
        bool fits = false;
        for (const SlrDescriptor &slr : m.slrs) {
            if (memoryFits(pref_demand, slr, pref, m.memoryDerate) ||
                (have_alt &&
                 memoryFits(alt_demand, slr, alt, m.memoryDerate))) {
                fits = true;
                break;
            }
        }
        if (!fits) {
            rep.add("BTH022", systemPath(m, s),
                    "per-core on-chip memory demand (" +
                        std::to_string(pref_demand.bram +
                                       pref_demand.uram +
                                       pref_demand.sramMacros) +
                        " " +
                        std::string(memoryCellKindName(pref)) +
                        "-equivalent blocks) exceeds the derated "
                        "capacity of every SLR")
                .note = "largest single memory: '" + worst + "'";
        }
    }
}

} // namespace

const std::vector<LintRuleEntry> &
memoryLintRules()
{
    static const std::vector<LintRuleEntry> rules = {
        {"width-convertibility", "memory", ruleWidthConvertibility},
        {"memory-geometry", "memory", ruleMemoryGeometry},
        {"burst-limit", "memory", ruleBurstLimit},
        {"scratchpad-capacity", "memory", ruleScratchpadCapacity},
    };
    return rules;
}

} // namespace beethoven::lint
