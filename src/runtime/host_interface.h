/**
 * @file
 * HostInterface — the modeled host<->device link.
 *
 * Every MMIO register access and every DMA transfer issued by the
 * runtime crosses this single serialized interface, with per-operation
 * latency supplied by the Platform (PCIe-scale on discrete devices,
 * on-die-scale on embedded ones). The serialization *is* the
 * runtime-server arbitration point the paper describes in
 * Section II-C1 — command dispatch and response polling for all cores
 * contend here, which produces the ideal-vs-measured gap of Fig. 6.
 */

#ifndef BEETHOVEN_RUNTIME_HOST_INTERFACE_H
#define BEETHOVEN_RUNTIME_HOST_INTERFACE_H

#include <deque>
#include <functional>

#include "cmd/mmio.h"
#include "dram/functional_memory.h"
#include "platform/platform.h"
#include "sim/module.h"

namespace beethoven
{

/** One host-side operation crossing the link. */
struct HostOp
{
    enum class Kind { Read32, Write32, DmaToDevice, DmaFromDevice };

    Kind kind = Kind::Read32;
    u32 offset = 0; ///< MMIO register offset (Read32/Write32)
    u32 value = 0;  ///< write payload
    Addr devAddr = 0;
    u8 *hostDst = nullptr;       ///< DmaFromDevice destination
    const u8 *hostSrc = nullptr; ///< DmaToDevice source
    std::size_t len = 0;
    /** Invoked at completion; the argument is the read value (or 0). */
    std::function<void(u32)> done;
};

class HostInterface : public Module
{
  public:
    HostInterface(Simulator &sim, std::string name,
                  MmioCommandSystem &mmio, FunctionalMemory &mem,
                  const Platform &platform);

    /**
     * Queue an operation; completes after its modeled latency. Wakes
     * the interface, which sleeps while it has nothing queued.
     */
    void enqueue(HostOp op);

    bool idle() const { return !_inFlight && _queue.empty(); }
    std::size_t pending() const
    {
        return _queue.size() + (_inFlight ? 1 : 0);
    }

    void tick() override;

  private:
    Cycle costOf(const HostOp &op) const;
    void perform(HostOp &op);

    MmioCommandSystem &_mmio;
    FunctionalMemory &_mem;
    const Platform &_platform;

    std::deque<HostOp> _queue;
    bool _inFlight = false;
    HostOp _current;
    Cycle _completesAt = 0;
};

} // namespace beethoven

#endif // BEETHOVEN_RUNTIME_HOST_INTERFACE_H
