/**
 * @file
 * RuntimeServer — the FPGA management runtime (Section II-C1).
 *
 * "The FPGA management runtime operates as a userspace server
 * responsible for arbitrating fair access to the command-response bus
 * and managing the FPGA memory space. ... The runtime server polls the
 * MMIO interface for command responses when there are in-flight
 * commands."
 *
 * One RuntimeServer attaches to one elaborated SoC. It owns the
 * device-space allocator and the HostInterface; every fpga_handle_t
 * (user process / thread) funnels its MMIO traffic through it. Because
 * the HostInterface serializes operations, concurrent users contend
 * exactly as they do on the real runtime's command-bus lock.
 */

#ifndef BEETHOVEN_RUNTIME_RUNTIME_SERVER_H
#define BEETHOVEN_RUNTIME_RUNTIME_SERVER_H

#include <map>
#include <memory>
#include <optional>

#include "core/soc.h"
#include "runtime/allocator.h"
#include "runtime/host_interface.h"

namespace beethoven
{

class RuntimeServer
{
  public:
    explicit RuntimeServer(AcceleratorSoc &soc);

    AcceleratorSoc &soc() { return _soc; }
    HostInterface &hostIf() { return *_hostIf; }
    DeviceAllocator &allocator() { return *_allocator; }

    /** A pending-response key: (systemId, coreId, rd). */
    struct RespKey
    {
        u32 systemId;
        u32 coreId;
        u32 rd;
        auto operator<=>(const RespKey &) const = default;
    };

    /** Claim a response token for a command about to be sent. */
    u32 allocateRd(u32 system_id, u32 core_id);

    /**
     * Send one custom command. Blocks (steps the simulation) until all
     * of its RoCC beats have crossed the MMIO interface. The
     * accelerator runs concurrently during this time.
     */
    void sendCommand(const CommandSpec &spec, u32 system_id, u32 core_id,
                     u32 command_id, u32 rd,
                     const std::vector<u64> &values);

    /** Non-blocking: true (and the payload) if the response arrived. */
    std::optional<u64> tryCollect(const RespKey &key);

    /**
     * Block (stepping the simulation and polling the MMIO response
     * registers) until the response for @p key arrives.
     * @throws ConfigError on timeout — a hung accelerator.
     */
    u64 waitFor(const RespKey &key, Cycle timeout = 500'000'000ULL);

  private:
    /** Cycles between response-poll sequences when waiting. */
    static constexpr Cycle kPollInterval = 50;

    /** Step the simulation until the host link drains its queue. */
    void drainHost();
    /** Run one response-poll sequence (costs MMIO operations). */
    void pollResponses();

    AcceleratorSoc &_soc;
    std::unique_ptr<HostInterface> _hostIf;
    std::unique_ptr<DeviceAllocator> _allocator;

    std::map<RespKey, u64> _arrived;
    std::map<std::pair<u32, u32>, u32> _rdCounters;
};

} // namespace beethoven

#endif // BEETHOVEN_RUNTIME_RUNTIME_SERVER_H
