#include "accel/memcpy_core.h"

namespace beethoven
{

MemcpyCore::MemcpyCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _reader(getReaderModule("src")),
      _writer(getWriterModule("dst"))
{}

AcceleratorSystemConfig
MemcpyCore::systemConfig(unsigned n_cores, const Variant &variant,
                         unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "MemcpySystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<MemcpyCore>(ctx);
    };
    ReadChannelConfig rc;
    rc.name = "src";
    rc.dataBytes = variant.dataBytes;
    rc.burstBeats = variant.burstBeats;
    rc.maxInflight = variant.maxInflight;
    rc.useTlp = variant.useTlp;
    sys.readChannels.push_back(rc);
    WriteChannelConfig wc;
    wc.name = "dst";
    wc.dataBytes = variant.dataBytes;
    wc.burstBeats = variant.burstBeats;
    wc.maxInflight = variant.maxInflight;
    wc.useTlp = variant.useTlp;
    sys.writeChannels.push_back(wc);
    sys.commands.push_back(CommandSpec(
        "do_memcpy",
        {CommandField::address("src", addr_bits),
         CommandField::address("dst", addr_bits),
         CommandField::uint("len_bytes", 32)},
        /*resp_bits=*/0));
    sys.kernelResources.lut = 180;
    sys.kernelResources.ff = 240;
    sys.kernelResources.clb = 35;
    return sys;
}

void
MemcpyCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand(StallClass::StallCmd);
        if (!cmd)
            return;
        _cmd = *cmd;
        _lastStart = sim().cycle();
        const u64 len = cmd->args[argLenBytes];
        if (len == 0) {
            _lastEnd = _lastStart;
            _state = State::Respond;
            accountCycle(StallClass::Busy);
            return;
        }
        _pendingSrc = cmd->args[argSrc];
        _pendingDst = cmd->args[argDst];
        _pendingLen = len;
        _wordsLeft = len / _reader.params().dataBytes;
        _state = State::Launch;
        [[fallthrough]]; // try to launch in the accept cycle
      }
      case State::Launch: {
        if (_reader.cmdPort().canPush() && _writer.cmdPort().canPush()) {
            _reader.cmdPort().push({_pendingSrc, _pendingLen});
            _writer.cmdPort().push({_pendingDst, _pendingLen});
            _state = State::Streaming;
            accountCycle(StallClass::Busy);
        } else {
            accountCycle(StallClass::StallDownstream);
        }
        return;
      }
      case State::Streaming: {
        if (_reader.dataPort().canPop() &&
            _writer.dataPort().canPush()) {
            _writer.dataPort().push(_reader.dataPort().pop());
            if (--_wordsLeft == 0)
                _state = State::WaitWriter;
            accountCycle(StallClass::Busy);
        } else if (!_reader.dataPort().canPop()) {
            accountCycle(StallClass::StallUpstream);
        } else {
            accountCycle(StallClass::StallDownstream);
        }
        return;
      }
      case State::WaitWriter: {
        if (_writer.donePort().canPop()) {
            _writer.donePort().pop();
            _lastEnd = sim().cycle();
            _state = State::Respond;
            accountCycle(StallClass::Busy);
        } else {
            accountCycle(StallClass::StallMem);
        }
        return;
      }
      case State::Respond: {
        if (respond(_cmd)) {
            _state = State::Idle;
            accountCycle(StallClass::Busy);
        } else {
            accountCycle(StallClass::StallDownstream);
        }
        return;
      }
    }
}

} // namespace beethoven
