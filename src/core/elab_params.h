/**
 * @file
 * Shared config -> elaboration parameter resolution.
 *
 * Channel configs leave zero-valued knobs to "platform default"
 * (Section II-B); both real elaboration (core/soc.cc) and the static
 * composition linter (lint/lint.h) must resolve them identically or
 * the linter would reason about a different design than the one that
 * gets built. These helpers are that single source of truth.
 */

#ifndef BEETHOVEN_CORE_ELAB_PARAMS_H
#define BEETHOVEN_CORE_ELAB_PARAMS_H

#include "core/config.h"
#include "platform/platform.h"

namespace beethoven
{

/**
 * Resolve a ReadChannelConfig's or WriteChannelConfig's knobs (the two
 * declare the same ones) against the platform defaults.
 */
template <typename ChannelConfig>
StreamParams
resolveStreamParams(const ChannelConfig &cfg, const Platform &platform)
{
    StreamParams p;
    p.dataBytes = cfg.dataBytes;
    p.burstBeats =
        cfg.burstBeats ? cfg.burstBeats : platform.defaultBurstBeats();
    p.maxInflight =
        cfg.maxInflight ? cfg.maxInflight : platform.defaultMaxInflight();
    p.useTlp = cfg.useTlp;
    return p;
}

/**
 * The hidden init Reader behind a scratchpad: a read channel one row
 * wide with every other knob at its default.
 */
StreamParams spadInitStreamParams(const ScratchpadConfig &cfg,
                                  const Platform &platform);

/** Geometry of a scratchpad, or of an intra-core port's inbox. */
ScratchpadParams scratchpadParams(const ScratchpadConfig &cfg);
ScratchpadParams scratchpadParams(const IntraCoreMemoryPortInConfig &cfg);

/**
 * Per-core Beethoven-generated + kernel logic estimate for one system
 * (no memory blocks — those are compiled exactly by the memory
 * compiler during floorplanning).
 */
ResourceVec estimateCoreLogic(const AcceleratorSystemConfig &sys,
                              const Platform &platform,
                              const AxiConfig &bus);

} // namespace beethoven

#endif // BEETHOVEN_CORE_ELAB_PARAMS_H
