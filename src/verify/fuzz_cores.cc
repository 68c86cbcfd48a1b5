#include "verify/fuzz_cores.h"

namespace beethoven::verify
{

SpadLoopbackCore::SpadLoopbackCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _writer(getWriterModule("loop_out")),
      _spad(getScratchpad("loop_spad"))
{}

AcceleratorSystemConfig
SpadLoopbackCore::systemConfig(unsigned n_cores, const Variant &variant,
                               unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "SpadLoopbackSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<SpadLoopbackCore>(ctx);
    };

    WriteChannelConfig wr;
    wr.name = "loop_out";
    wr.dataBytes = 4;
    wr.burstBeats = variant.burstBeats;
    wr.maxInflight = variant.maxInflight;
    wr.useTlp = variant.useTlp;
    sys.writeChannels.push_back(wr);

    ScratchpadConfig sp;
    sp.name = "loop_spad";
    sp.dataWidthBits = 32;
    sp.nDatas = variant.spadRows;
    sp.nPorts = 1;
    sp.latency = variant.spadLatency;
    sp.supportsInit = true;
    sys.scratchpads.push_back(sp);

    sys.commands.push_back(CommandSpec(
        "spad_copy",
        {CommandField::address("src", addr_bits),
         CommandField::address("dst", addr_bits),
         CommandField::uint("n_words", 16)},
        /*resp_bits=*/0));

    // Control FSM plus a row counter pair; the memory dominates.
    sys.kernelResources.lut = 400;
    sys.kernelResources.ff = 500;
    sys.kernelResources.clb = 70;
    return sys;
}

void
SpadLoopbackCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand();
        if (!cmd)
            return;
        _cmd = *cmd;
        _words = static_cast<u32>(_cmd.args[argWords]);
        beethoven_assert(_words > 0 &&
                             _words <= _spad.params().nDatas,
                         "spad_copy: n_words=%u exceeds scratchpad "
                         "depth %u",
                         _words, _spad.params().nDatas);
        // Hold the decoded command in Launch until both ports accept
        // it — polling again in Idle would drop it (the lesson of
        // MemcpyCore's Launch state).
        _state = State::Launch;
        [[fallthrough]];
      }
      case State::Launch: {
        if (!_spad.initPort().canPush() || !_writer.cmdPort().canPush())
            return;
        _spad.initPort().push({_cmd.args[argSrc], 0, _words});
        _writer.cmdPort().push(
            {_cmd.args[argDst], u64(_words) * sizeof(u32)});
        _reqRow = 0;
        _respRow = 0;
        _state = State::Init;
        return;
      }
      case State::Init: {
        if (_spad.initDonePort().canPop()) {
            _spad.initDonePort().pop();
            _state = State::Drain;
        }
        return;
      }
      case State::Drain: {
        if (_reqRow < _words && _spad.reqPort(0).canPush()) {
            SpadRequest req;
            req.row = _reqRow;
            _spad.reqPort(0).push(req);
            ++_reqRow;
        }
        if (_spad.respPort(0).canPop() && _writer.dataPort().canPush()) {
            SpadResponse resp = _spad.respPort(0).pop();
            StreamWord w;
            w.data = resp.data;
            _writer.dataPort().push(std::move(w));
            if (++_respRow == _words)
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

} // namespace beethoven::verify
