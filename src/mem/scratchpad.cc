#include "mem/scratchpad.h"

#include <algorithm>
#include <cstring>

#include "base/log.h"

namespace beethoven
{

Scratchpad::Scratchpad(Simulator &sim, std::string name,
                       const ScratchpadParams &params, Reader *init_reader)
    : Module(sim, std::move(name)),
      _params(params),
      _initReader(init_reader),
      _stall(sim, Module::name())
{
    beethoven_assert(params.nPorts >= 1, "scratchpad with zero ports");
    declareRole("scratchpad");
    declareSleepable();
    if (params.supportsInit) {
        beethoven_assert(init_reader != nullptr,
                         "scratchpad %s supports init but has no reader",
                         Module::name().c_str());
        beethoven_assert(
            init_reader->params().dataBytes == params.rowBytes(),
            "init reader port width %u != scratchpad row bytes %u",
            init_reader->params().dataBytes, params.rowBytes());
        _initQ = std::make_unique<TimedQueue<SpadInitCommand>>(sim, 2);
        _initDoneQ = std::make_unique<TimedQueue<StreamDone>>(sim, 2);
        // Event-kernel wiring: init commands and the init reader's
        // returned rows both wake a quiescent scratchpad.
        _initQ->setWakeOnPush(this);
        _initDoneQ->setWakeOnPop(this);
        init_reader->dataPort().setWakeOnPush(this);
        init_reader->cmdPort().setWakeOnPop(this);
    }
    for (unsigned p = 0; p < params.nPorts; ++p) {
        _reqPorts.push_back(std::make_unique<TimedQueue<SpadRequest>>(
            sim, params.portQueueDepth));
        _respPorts.push_back(std::make_unique<TimedQueue<SpadResponse>>(
            sim, params.portQueueDepth + params.latency,
            std::max(1u, params.latency)));
        _reqPorts.back()->setWakeOnPush(this);
        _respPorts.back()->setWakeOnPop(this);
    }
}

TimedQueue<SpadInitCommand> &
Scratchpad::initPort()
{
    beethoven_assert(_initQ != nullptr, "scratchpad %s has no init path",
                     name().c_str());
    return *_initQ;
}

TimedQueue<StreamDone> &
Scratchpad::initDonePort()
{
    beethoven_assert(_initDoneQ != nullptr,
                     "scratchpad %s has no init path", name().c_str());
    return *_initDoneQ;
}

TimedQueue<SpadRequest> &
Scratchpad::addIntraCoreWritePort()
{
    _intraPorts.push_back(
        std::make_unique<TimedQueue<SpadRequest>>(sim(), 4));
    _intraPorts.back()->setWakeOnPush(this);
    return *_intraPorts.back();
}

void
Scratchpad::writeRow(u32 row, std::span<const u8> data)
{
    beethoven_assert(row < _params.nDatas, "write row %u out of range",
                     row);
    const std::size_t rb = _params.rowBytes();
    beethoven_assert(data.size() == rb,
                     "write data size %zu != row bytes %zu", data.size(),
                     rb);
    if (_storage.empty())
        _storage.assign(std::size_t(_params.nDatas) * rb, 0);
    std::memcpy(_storage.data() + std::size_t(row) * rb, data.data(), rb);
}

void
Scratchpad::readRow(u32 row, Bytes &out) const
{
    beethoven_assert(row < _params.nDatas, "read row %u out of range",
                     row);
    const std::size_t rb = _params.rowBytes();
    if (_storage.empty()) {
        out.assign(rb, 0);
        return;
    }
    const u8 *base = _storage.data() + std::size_t(row) * rb;
    out.assign(base, base + rb);
}

std::vector<u8>
Scratchpad::peek(u32 row) const
{
    Bytes bytes;
    readRow(row, bytes);
    return std::vector<u8>(bytes.begin(), bytes.end());
}

void
Scratchpad::poke(u32 row, const std::vector<u8> &data)
{
    writeRow(row, data);
}

u64
Scratchpad::peekUint(u32 row) const
{
    Bytes bytes;
    readRow(row, bytes);
    u64 v = 0;
    for (std::size_t i = 0; i < bytes.size() && i < 8; ++i)
        v |= u64(bytes[i]) << (8 * i);
    return v;
}

void
Scratchpad::pokeUint(u32 row, u64 value)
{
    std::vector<u8> bytes(_params.rowBytes(), 0);
    for (std::size_t i = 0; i < bytes.size() && i < 8; ++i)
        bytes[i] = static_cast<u8>(value >> (8 * i));
    poke(row, bytes);
}

void
Scratchpad::tick()
{
    bool did = false;
    bool read_blocked = false;
    // Serve each request/response port pair (one access per port).
    for (unsigned p = 0; p < _params.nPorts; ++p) {
        auto &req_q = *_reqPorts[p];
        auto &resp_q = *_respPorts[p];
        if (!req_q.canPop())
            continue;
        const SpadRequest &req = req_q.front();
        if (req.write) {
            writeRow(req.row, req.data);
            req_q.pop();
            ++_accesses;
            did = true;
        } else if (resp_q.canPush()) {
            SpadResponse resp;
            resp.row = req.row;
            readRow(req.row, resp.data);
            req_q.pop();
            resp_q.push(std::move(resp));
            ++_accesses;
            did = true;
        } else {
            read_blocked = true;
        }
    }

    // Intra-core write ports are write-only.
    for (auto &port : _intraPorts) {
        if (port->canPop()) {
            const SpadRequest &w = port->front();
            beethoven_assert(w.write,
                             "read request on intra-core write port");
            writeRow(w.row, w.data);
            port->pop();
            ++_accesses;
            did = true;
        }
    }

    bool token_blocked = false;
    if (serveInit(token_blocked))
        did = true;

    if (did) {
        _stall.account(StallClass::Busy);
        return;
    }
    // Blocked or idle: every way forward is a port push, a response
    // drain, a done-token drain, or the init reader returning rows —
    // all wired wakes.
    StallClass c = StallClass::Idle;
    if (read_blocked || token_blocked)
        c = StallClass::StallDownstream;
    else if (_initActive)
        c = StallClass::StallMem;
    _stall.account(c);
    sleepWith(_stall, c);
}

bool
Scratchpad::serveInit(bool &token_blocked)
{
    if (!_params.supportsInit)
        return false;
    bool did = false;

    if (!_initActive && _initQ->canPop()) {
        const SpadInitCommand cmd = _initQ->front();
        beethoven_assert(u64(cmd.rowOffset) + cmd.rows <= _params.nDatas,
                         "init range [%u, +%u) exceeds %u rows",
                         cmd.rowOffset, cmd.rows, _params.nDatas);
        if (cmd.rows == 0) {
            // An empty init is done at once, but its command stays
            // queued until the token has room.
            token_blocked = !_initDoneQ->canPush();
            if (token_blocked)
                return false;
            _initQ->pop();
            _initDoneQ->push(StreamDone{0});
            return true;
        }
        _initQ->pop();
        did = true;
        _initActive = true;
        _initRow = cmd.rowOffset;
        _initRowsLeft = cmd.rows;
        StreamCommand rc;
        rc.addr = cmd.memAddr;
        rc.lenBytes = u64(cmd.rows) * _params.rowBytes();
        beethoven_assert(_initReader->cmdPort().canPush(),
                         "init reader command queue full");
        _initReader->cmdPort().push(rc);
    }

    if (_initActive && _initRowsLeft > 0 &&
        _initReader->dataPort().canPop()) {
        writeRow(_initRow, _initReader->dataPort().front().data);
        _initReader->dataPort().pop();
        ++_accesses;
        ++_initRow;
        --_initRowsLeft;
        did = true;
    }

    // A filled init stays active, holding its token, until the done
    // queue has room.
    if (_initActive && _initRowsLeft == 0) {
        token_blocked = !_initDoneQ->canPush();
        if (!token_blocked) {
            _initActive = false;
            _initDoneQ->push(StreamDone{0});
            did = true;
        }
    }
    return did;
}

} // namespace beethoven
