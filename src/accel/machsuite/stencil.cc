#include "accel/machsuite/stencil.h"

#include "baselines/machsuite_golden.h"

namespace beethoven::machsuite
{

namespace
{

i32
wordToI32(const Bytes &bytes)
{
    u32 v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= u32(bytes[i]) << (8 * i);
    return static_cast<i32>(v);
}

} // namespace

// --- Stencil2D ------------------------------------------------------

Stencil2dCore::Stencil2dCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _grid(getScratchpad("grid")),
      _outWriter(getWriterModule("out"))
{}

AcceleratorSystemConfig
Stencil2dCore::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "Stencil2dSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<Stencil2dCore>(ctx);
    };
    ScratchpadConfig grid;
    grid.name = "grid";
    grid.dataWidthBits = 32;
    grid.nDatas = maxDim * maxDim;
    grid.supportsInit = true;
    sys.scratchpads.push_back(grid);
    sys.writeChannels.push_back({"out", /*dataBytes=*/4});
    sys.commands.push_back(CommandSpec(
        "stencil2d",
        {CommandField::address("in_addr", addr_bits),
         CommandField::address("out_addr", addr_bits),
         CommandField::uint("rows", 16),
         CommandField::uint("cols", 16)},
        /*resp_bits=*/0));
    sys.kernelResources.lut = 4200;
    sys.kernelResources.ff = 5200;
    sys.kernelResources.clb = 700;
    return sys;
}

void
Stencil2dCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand();
        if (!cmd)
            return;
        _cmd = *cmd;
        _lastStart = sim().cycle();
        _rows = static_cast<unsigned>(cmd->args[argRows]);
        _cols = static_cast<unsigned>(cmd->args[argCols]);
        beethoven_assert(_rows >= 3 && _cols >= 3 &&
                             _rows * _cols <= maxDim * maxDim,
                         "stencil2d: bad dimensions %ux%u", _rows,
                         _cols);
        if (!_grid.initPort().canPush() ||
            !_outWriter.cmdPort().canPush()) {
            return;
        }
        _grid.initPort().push({_cmd.args[argIn], 0, _rows * _cols});
        _outWriter.cmdPort().push(
            {_cmd.args[argOut], u64(_rows) * _cols * sizeof(i32)});
        _state = State::Load;
        return;
      }
      case State::Load: {
        if (_grid.initDonePort().canPop()) {
            _grid.initDonePort().pop();
            _r = 0;
            _c = 0;
            _tap = 0;
            _tapResp = 0;
            _acc = 0;
            _state = State::Point;
        }
        return;
      }
      case State::Point: {
        const bool interior = _r >= 1 && _r + 1 < _rows && _c >= 1 &&
                              _c + 1 < _cols;
        const unsigned n_taps = interior ? 9 : 1;
        if (_tap < n_taps && _grid.reqPort(0).canPush()) {
            SpadRequest req;
            if (interior) {
                const unsigned dr = _tap / 3, dc = _tap % 3;
                req.row = (_r + dr - 1) * _cols + (_c + dc - 1);
            } else {
                req.row = _r * _cols + _c;
            }
            _grid.reqPort(0).push(req);
            ++_tap;
        }
        if (_tapResp < n_taps && _grid.respPort(0).canPop()) {
            const i32 v = wordToI32(_grid.respPort(0).pop().data);
            _acc += interior ? i64(stencil2dCoeffs[_tapResp]) * v
                             : i64(v);
            ++_tapResp;
        }
        if (_tapResp == n_taps &&
            _outWriter.dataPort().canPush()) {
            _outWriter.dataPort().push(StreamWord::fromUint(
                static_cast<u32>(static_cast<i32>(_acc)), 4));
            _acc = 0;
            _tap = 0;
            _tapResp = 0;
            if (++_c == _cols) {
                _c = 0;
                if (++_r == _rows)
                    _state = State::WaitWriter;
            }
        }
        return;
      }
      case State::WaitWriter: {
        if (_outWriter.donePort().canPop()) {
            _outWriter.donePort().pop();
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

// --- Stencil3D ------------------------------------------------------

Stencil3dCore::Stencil3dCore(const CoreContext &ctx)
    : AcceleratorCore(ctx),
      _grid(getScratchpad("volume")),
      _outWriter(getWriterModule("out"))
{}

AcceleratorSystemConfig
Stencil3dCore::systemConfig(unsigned n_cores, unsigned addr_bits)
{
    AcceleratorSystemConfig sys;
    sys.name = "Stencil3dSystem";
    sys.nCores = n_cores;
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<Stencil3dCore>(ctx);
    };
    ScratchpadConfig vol;
    vol.name = "volume";
    vol.dataWidthBits = 32;
    vol.nDatas = maxDim * maxDim * maxDim;
    vol.supportsInit = true;
    sys.scratchpads.push_back(vol);
    sys.writeChannels.push_back({"out", /*dataBytes=*/4});
    sys.commands.push_back(CommandSpec(
        "stencil3d",
        {CommandField::address("in_addr", addr_bits),
         CommandField::address("out_addr", addr_bits),
         CommandField::uint("n", 16)},
        /*resp_bits=*/0));
    sys.kernelResources.lut = 4600;
    sys.kernelResources.ff = 5600;
    sys.kernelResources.clb = 760;
    return sys;
}

void
Stencil3dCore::tick()
{
    switch (_state) {
      case State::Idle: {
        auto cmd = awaitCommand();
        if (!cmd)
            return;
        _cmd = *cmd;
        _lastStart = sim().cycle();
        _n = static_cast<unsigned>(cmd->args[argN]);
        beethoven_assert(_n >= 3 && _n <= maxDim,
                         "stencil3d: n=%u out of range", _n);
        if (!_grid.initPort().canPush() ||
            !_outWriter.cmdPort().canPush()) {
            return;
        }
        _grid.initPort().push({_cmd.args[argIn], 0, _n * _n * _n});
        _outWriter.cmdPort().push(
            {_cmd.args[argOut], u64(_n) * _n * _n * sizeof(i32)});
        _state = State::Load;
        return;
      }
      case State::Load: {
        if (_grid.initDonePort().canPop()) {
            _grid.initDonePort().pop();
            _x = _y = _z = 0;
            _tap = 0;
            _tapResp = 0;
            _acc = 0;
            _state = State::Point;
        }
        return;
      }
      case State::Point: {
        const bool interior = _x >= 1 && _x + 1 < _n && _y >= 1 &&
                              _y + 1 < _n && _z >= 1 && _z + 1 < _n;
        const unsigned n_taps = interior ? 7 : 1;
        auto row_of = [&](unsigned x, unsigned y, unsigned z) {
            return (z * _n + y) * _n + x;
        };
        if (_tap < n_taps && _grid.reqPort(0).canPush()) {
            SpadRequest req;
            if (interior) {
                // Tap order: center, -x, +x, -y, +y, -z, +z.
                static const int dx[7] = {0, -1, 1, 0, 0, 0, 0};
                static const int dy[7] = {0, 0, 0, -1, 1, 0, 0};
                static const int dz[7] = {0, 0, 0, 0, 0, -1, 1};
                req.row = row_of(_x + dx[_tap], _y + dy[_tap],
                                 _z + dz[_tap]);
            } else {
                req.row = row_of(_x, _y, _z);
            }
            _grid.reqPort(0).push(req);
            ++_tap;
        }
        if (_tapResp < n_taps && _grid.respPort(0).canPop()) {
            const i32 v = wordToI32(_grid.respPort(0).pop().data);
            if (!interior)
                _acc += v;
            else if (_tapResp == 0)
                _acc += i64(stencil3dC0) * v;
            else
                _acc += i64(stencil3dC1) * v;
            ++_tapResp;
        }
        if (_tapResp == n_taps &&
            _outWriter.dataPort().canPush()) {
            _outWriter.dataPort().push(StreamWord::fromUint(
                static_cast<u32>(static_cast<i32>(_acc)), 4));
            _acc = 0;
            _tap = 0;
            _tapResp = 0;
            if (++_x == _n) {
                _x = 0;
                if (++_y == _n) {
                    _y = 0;
                    if (++_z == _n)
                        _state = State::WaitWriter;
                }
            }
        }
        return;
      }
      case State::WaitWriter: {
        if (_outWriter.donePort().canPop()) {
            _outWriter.donePort().pop();
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
