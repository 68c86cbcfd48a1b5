#include "accel/machsuite/md_knn.h"

#include <cstring>

namespace beethoven::machsuite
{

namespace
{

void
unpackPosition(const Bytes &row, double &x, double &y, double &z)
{
    std::memcpy(&x, row.data(), 8);
    std::memcpy(&y, row.data() + 8, 8);
    std::memcpy(&z, row.data() + 16, 8);
}

} // namespace

MdKnnCore::MdKnnCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _pos(getScratchpad("pos")),
      _nlReader(getReaderModule("nl")),
      _forceWriter(getWriterModule("force"))
{}

AcceleratorSystemConfig
MdKnnCore::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "MdKnnSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<MdKnnCore>(ctx);
    };
    ScratchpadConfig pos;
    pos.name = "pos";
    pos.dataWidthBits = 256; // x, y, z doubles + padding
    pos.nDatas = maxAtoms;
    pos.supportsInit = true;
    sys.scratchpads.push_back(pos);
    sys.readChannels.push_back({"nl", /*dataBytes=*/4});
    sys.writeChannels.push_back({"force", /*dataBytes=*/32});
    sys.commands.push_back(CommandSpec(
        "md_knn",
        {CommandField::address("pos_addr", addr_bits),
         CommandField::address("nl_addr", addr_bits),
         CommandField::address("force_addr", addr_bits),
         CommandField::uint("n", 16), CommandField::uint("k", 8)},
        /*resp_bits=*/0));
    // One double-precision LJ datapath (mul/add/divide chain): the
    // paper's MD-KNN cores are LUT-limited on the VU9P.
    sys.kernelResources.lut = 46000;
    sys.kernelResources.ff = 38000;
    sys.kernelResources.clb = 7600;
    return sys;
}

void
MdKnnCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand();
        if (!cmd)
            return;
        _cmd = *cmd;
        _lastStart = sim().cycle();
        _n = static_cast<unsigned>(cmd->args[argN]);
        _k = static_cast<unsigned>(cmd->args[argK]);
        beethoven_assert(_n >= 1 && _n <= maxAtoms && _k >= 1,
                         "md-knn: bad n=%u k=%u", _n, _k);
        if (!_pos.initPort().canPush() ||
            !_nlReader.cmdPort().canPush() ||
            !_forceWriter.cmdPort().canPush()) {
            return;
        }
        _pos.initPort().push({_cmd.args[argPos], 0, _n});
        _nlReader.cmdPort().push(
            {_cmd.args[argNeighbors], u64(_n) * _k * sizeof(i32)});
        _forceWriter.cmdPort().push({_cmd.args[argForce], u64(_n) * 32});
        _state = State::Load;
        return;
      }
      case State::Load: {
        if (_pos.initDonePort().canPop()) {
            _pos.initDonePort().pop();
            _atom = 0;
            _reqSent = false;
            _state = State::AtomStart;
        }
        return;
      }
      case State::AtomStart: {
        // Fetch this atom's own position.
        if (!_reqSent) {
            if (_pos.reqPort(0).canPush()) {
                SpadRequest req;
                req.row = _atom;
                _pos.reqPort(0).push(req);
                _reqSent = true;
            }
            return;
        }
        if (_pos.respPort(0).canPop()) {
            unpackPosition(_pos.respPort(0).pop().data, _xi, _yi, _zi);
            _fx = _fy = _fz = 0.0;
            _neighbor = 0;
            _reqSent = false;
            _state = State::NeighborFetch;
        }
        return;
      }
      case State::NeighborFetch: {
        // Pop the next neighbor index and request its position.
        if (!_reqSent) {
            if (_nlReader.dataPort().canPop() &&
                _pos.reqPort(0).canPush()) {
                const u32 nb = static_cast<u32>(
                    _nlReader.dataPort().pop().toUint());
                beethoven_assert(nb < _n,
                                 "md-knn: neighbor index %u out of "
                                 "range",
                                 nb);
                SpadRequest req;
                req.row = nb;
                _pos.reqPort(0).push(req);
                _reqSent = true;
            }
            return;
        }
        if (_pos.respPort(0).canPop()) {
            unpackPosition(_pos.respPort(0).pop().data, _nx, _ny, _nz);
            _reqSent = false;
            _fpCountdown = fpLatency;
            _state = State::NeighborCompute;
        }
        return;
      }
      case State::NeighborCompute: {
        // A single sequential LJ datapath: charge its latency, then
        // commit the accumulation (same arithmetic as the golden
        // model, in the same order).
        if (--_fpCountdown > 0)
            return;
        const double dx = _xi - _nx;
        const double dy = _yi - _ny;
        const double dz = _zi - _nz;
        const double r2 = dx * dx + dy * dy + dz * dz;
        const double r2inv = 1.0 / r2;
        const double r6inv = r2inv * r2inv * r2inv;
        const double potential = r6inv * (1.5 * r6inv - 2.0);
        const double f = r2inv * potential;
        _fx += f * dx;
        _fy += f * dy;
        _fz += f * dz;
        if (++_neighbor < _k) {
            _state = State::NeighborFetch;
        } else {
            _state = State::WriteForce;
        }
        return;
      }
      case State::WriteForce: {
        if (!_forceWriter.dataPort().canPush())
            return;
        StreamWord w;
        w.data.assign(32, 0);
        std::memcpy(w.data.data(), &_fx, 8);
        std::memcpy(w.data.data() + 8, &_fy, 8);
        std::memcpy(w.data.data() + 16, &_fz, 8);
        _forceWriter.dataPort().push(std::move(w));
        if (++_atom < _n) {
            _reqSent = false;
            _state = State::AtomStart;
        } else {
            _state = State::WaitWriter;
        }
        return;
      }
      case State::WaitWriter: {
        if (_forceWriter.donePort().canPop()) {
            _forceWriter.donePort().pop();
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
