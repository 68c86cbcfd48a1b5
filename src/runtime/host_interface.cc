#include "runtime/host_interface.h"

#include "base/bits.h"

namespace beethoven
{

HostInterface::HostInterface(Simulator &sim, std::string name,
                             MmioCommandSystem &mmio,
                             FunctionalMemory &mem,
                             const Platform &platform)
    : Module(sim, std::move(name)),
      _mmio(mmio),
      _mem(mem),
      _platform(platform)
{
    declareSleepable();
    declareSelfWake();
}

void
HostInterface::enqueue(HostOp op)
{
    _queue.push_back(std::move(op));
    sim().wakeNow(this);
}

Cycle
HostInterface::costOf(const HostOp &op) const
{
    switch (op.kind) {
      case HostOp::Kind::Read32:
        return std::max(1u, _platform.mmioReadCycles());
      case HostOp::Kind::Write32:
        return std::max(1u, _platform.mmioWriteCycles());
      case HostOp::Kind::DmaToDevice:
      case HostOp::Kind::DmaFromDevice: {
        const double bw = _platform.dmaBandwidthBytesPerCycle();
        const Cycle setup = 4ULL * _platform.mmioWriteCycles();
        return setup + static_cast<Cycle>(
                           divCeil(op.len, static_cast<u64>(bw)));
      }
    }
    return 1;
}

void
HostInterface::perform(HostOp &op)
{
    u32 result = 0;
    switch (op.kind) {
      case HostOp::Kind::Read32:
        result = _mmio.read32(op.offset);
        break;
      case HostOp::Kind::Write32:
        _mmio.write32(op.offset, op.value);
        break;
      case HostOp::Kind::DmaToDevice:
        _mem.write(op.devAddr, op.len, op.hostSrc);
        break;
      case HostOp::Kind::DmaFromDevice:
        _mem.read(op.devAddr, op.len, op.hostDst);
        break;
    }
    if (op.done)
        op.done(result);
}

void
HostInterface::tick()
{
    const Cycle now = sim().cycle();
    if (!_inFlight) {
        if (_queue.empty()) {
            requestSleep(); // enqueue() wakes us
            return;
        }
        _current = std::move(_queue.front());
        _queue.pop_front();
        _inFlight = true;
        _completesAt = now + costOf(_current);
    }
    if (now + 1 < _completesAt) {
        // Nothing happens until the op's last cycle.
        requestWakeAt(_completesAt - 1);
        requestSleep();
        return;
    }
    perform(_current);
    _inFlight = false;
    // The next op starts on the next tick.
    if (_queue.empty())
        requestSleep();
}

} // namespace beethoven
