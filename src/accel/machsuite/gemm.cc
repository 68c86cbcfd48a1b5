#include "accel/machsuite/gemm.h"

#include <cstring>

namespace beethoven::machsuite
{

GemmCore::GemmCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _aReader(getReaderModule("a_in")),
      _cWriter(getWriterModule("c_out")),
      _bMat(getScratchpad("bmat"))
{}

AcceleratorSystemConfig
GemmCore::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "GemmSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<GemmCore>(ctx);
    };
    sys.readChannels.push_back({"a_in", /*dataBytes=*/64});
    sys.writeChannels.push_back({"c_out", /*dataBytes=*/4});
    ScratchpadConfig bmat;
    bmat.name = "bmat";
    bmat.dataWidthBits = lanes * 32;
    bmat.nDatas = maxN * maxN / lanes;
    bmat.nPorts = 1;
    bmat.latency = 1;
    bmat.supportsInit = true;
    sys.scratchpads.push_back(bmat);
    sys.commands.push_back(CommandSpec(
        "gemm",
        {CommandField::address("a_addr", addr_bits),
         CommandField::address("bt_addr", addr_bits),
         CommandField::address("c_addr", addr_bits),
         CommandField::uint("n", 16)},
        /*resp_bits=*/0));
    // Synthesis estimate for 16 int32 MAC lanes, the 256-entry A-row
    // register file, and the control FSM (the paper's GeMM cores are
    // LUT-limited on the VU9P).
    sys.kernelResources.lut = 52000;
    sys.kernelResources.ff = 34000;
    sys.kernelResources.clb = 8600;
    return sys;
}

void
GemmCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand();
        if (!cmd)
            return;
        _cmd = *cmd;
        _lastStart = sim().cycle();
        _n = static_cast<unsigned>(cmd->args[argN]);
        beethoven_assert(_n >= lanes && _n <= maxN && _n % lanes == 0,
                         "gemm: n=%u must be a multiple of %u in "
                         "[%u, %u]",
                         _n, lanes, lanes, maxN);
        // Load B^T through the scratchpad's init-from-memory path and
        // kick off both streams.
        if (!_bMat.initPort().canPush() ||
            !_aReader.cmdPort().canPush() ||
            !_cWriter.cmdPort().canPush()) {
            return;
        }
        _bMat.initPort().push(
            {_cmd.args[argBt], 0, _n * _n / lanes});
        _aReader.cmdPort().push(
            {_cmd.args[argA], u64(_n) * _n * sizeof(i32)});
        _cWriter.cmdPort().push(
            {_cmd.args[argC], u64(_n) * _n * sizeof(i32)});
        _row = 0;
        _state = State::LoadB;
        return;
      }
      case State::LoadB: {
        if (_bMat.initDonePort().canPop()) {
            _bMat.initDonePort().pop();
            _aBeats = 0;
            _state = State::LoadARow;
        }
        return;
      }
      case State::LoadARow: {
        // One 64-byte beat (16 operands) per cycle into the register
        // file.
        if (!_aReader.dataPort().canPop())
            return;
        StreamWord w = _aReader.dataPort().pop();
        std::memcpy(&_aRow[_aBeats * lanes], w.data.data(),
                    lanes * sizeof(i32));
        if (++_aBeats == _n / lanes) {
            _reqWord = 0;
            _respWord = 0;
            _acc = 0;
            _state = State::Compute;
        }
        return;
      }
      case State::Compute: {
        const unsigned total_words = _n * (_n / lanes);
        // Pipelined scratchpad reads: issue the next request while the
        // MAC array consumes the previous response.
        if (_reqWord < total_words && _bMat.reqPort(0).canPush()) {
            SpadRequest req;
            req.row = _reqWord;
            req.write = false;
            _bMat.reqPort(0).push(req);
            ++_reqWord;
        }
        if (_respWord < total_words && _bMat.respPort(0).canPop()) {
            // A C element completes every n/lanes responses; make sure
            // there is room to emit it before consuming.
            const unsigned k16 = _respWord % (_n / lanes);
            const bool completes = k16 + 1 == _n / lanes;
            if (completes && !_cWriter.dataPort().canPush())
                return;
            SpadResponse resp = _bMat.respPort(0).pop();
            const i32 *b =
                reinterpret_cast<const i32 *>(resp.data.data());
            i64 acc = _acc;
            for (unsigned l = 0; l < lanes; ++l)
                acc += i64(_aRow[k16 * lanes + l]) * b[l];
            _acc = acc;
            ++_respWord;
            if (completes) {
                _cWriter.dataPort().push(StreamWord::fromUint(
                    static_cast<u32>(static_cast<i32>(_acc)), 4));
                _acc = 0;
            }
            if (_respWord == total_words)
                _state = State::DrainRow;
        }
        return;
      }
      case State::DrainRow: {
        // All responses for this row consumed; advance to the next
        // output row (the A stream continues) or finish.
        if (++_row < _n) {
            _aBeats = 0;
            _state = State::LoadARow;
        } else {
            _state = State::WaitWriter;
        }
        return;
      }
      case State::WaitWriter: {
        if (_cWriter.donePort().canPop()) {
            _cWriter.donePort().pop();
            _lastEnd = sim().cycle();
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

} // namespace beethoven::machsuite
