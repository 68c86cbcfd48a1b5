#include "accel/vecadd.h"

namespace beethoven
{

VecAddCore::VecAddCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _reader(getReaderModule("vec_in")),
      _writer(getWriterModule("vec_out"))
{}

AcceleratorSystemConfig
VecAddCore::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "MyAcceleratorSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<VecAddCore>(ctx);
    };
    sys.readChannels.push_back({"vec_in", /*dataBytes=*/4});
    sys.writeChannels.push_back({"vec_out", /*dataBytes=*/4});
    sys.commands.push_back(CommandSpec(
        "my_accel",
        {CommandField::uint("addend", 32),
         CommandField::address("vec_addr", addr_bits),
         CommandField::uint("n_eles", 20)},
        /*resp_bits=*/0));
    // A one-adder datapath plus control.
    sys.kernelResources.lut = 350;
    sys.kernelResources.ff = 420;
    sys.kernelResources.clb = 60;
    return sys;
}

void
VecAddCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand();
        if (!cmd)
            return;
        _cmd = *cmd;
        _addend = static_cast<u32>(cmd->args[argAddend]);
        const Addr addr = cmd->args[argVecAddr];
        const u64 n = cmd->args[argNumEles];
        _wordsLeft = n;
        if (n == 0) {
            _state = State::Respond;
            return;
        }
        // Fig. 2: both streams are launched from the request fields.
        if (_reader.cmdPort().canPush() && _writer.cmdPort().canPush()) {
            const u64 len_bytes = n * 4; // Cat(n_eles, 0.U(2.W))
            _reader.cmdPort().push({addr, len_bytes});
            _writer.cmdPort().push({addr, len_bytes});
            _state = State::Streaming;
        }
        return;
      }
      case State::Streaming: {
        // One 32-bit element per cycle: add and write back.
        if (_reader.dataPort().canPop() &&
            _writer.dataPort().canPush()) {
            StreamWord w = _reader.dataPort().pop();
            const u32 v = static_cast<u32>(w.toUint()) + _addend;
            _writer.dataPort().push(StreamWord::fromUint(v, 4));
            if (--_wordsLeft == 0)
                _state = State::WaitWriter;
        }
        return;
      }
      case State::WaitWriter: {
        if (_writer.donePort().canPop()) {
            _writer.donePort().pop();
            _state = State::Respond;
        }
        return;
      }
      case State::Respond: {
        if (respond(_cmd))
            _state = State::Idle;
        return;
      }
    }
}

} // namespace beethoven
