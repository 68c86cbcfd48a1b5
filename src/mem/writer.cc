#include "mem/writer.h"

#include <algorithm>

#include "base/bits.h"
#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

Writer::Writer(Simulator &sim, std::string name,
               const WriterParams &params, const AxiConfig &bus,
               u32 id_base, TimedQueue<WriteFlit> *w_out,
               TimedQueue<WriteResponse> *b_in)
    : Module(sim, std::move(name)),
      _params(params),
      _bus(bus),
      _idBase(id_base),
      _wOut(w_out),
      _bIn(b_in),
      _cmdQ(sim, params.cmdQueueDepth),
      _dataQ(sim, params.dataQueueDepth),
      _doneQ(sim, params.doneQueueDepth),
      _stall(sim, Module::name())
{
    beethoven_assert(params.dataBytes > 0, "writer port width 0");
    beethoven_assert(params.burstBeats >= 1 &&
                         params.burstBeats <= bus.maxBurstBeats,
                     "writer burst length %u exceeds bus limit %u",
                     params.burstBeats, bus.maxBurstBeats);
    StatGroup &g = sim.stats().group(Module::name());
    _statBytesWritten = &g.scalar("bytesWritten");
    _statTxns = &g.scalar("transactions");
    _streamCycles = &g.histogram("streamCycles");
    _streamCycles->configure(64, 64.0);
    declareRole("writer");
    declareSleepable();
    // Event-kernel wiring: every condition a blocked tick waits on is
    // a queue event on one of these five ports.
    _cmdQ.setWakeOnPush(this);
    _dataQ.setWakeOnPush(this);
    _doneQ.setWakeOnPop(this);
    _wOut->setWakeOnPop(this);
    _bIn->setWakeOnPush(this);
}

bool
Writer::idle() const
{
    return !_active && _cmdQ.occupancy() == 0;
}

void
Writer::tick()
{
    bool did = false;
    if (!_active)
        did |= startNextCommand();
    if (acceptWords())
        did = true;
    if (emitFlits())
        did = true;
    if (receiveResponses())
        did = true;
    // Deliver the completion token once every burst has been acked.
    const bool done_ready = _active && _bytesLeft == 0 &&
                            _bytesAcked == _cmdLen && !_open.valid;
    if (done_ready && _doneQ.canPush()) {
        _doneQ.push(StreamDone{_cmdLen});
        _active = false;
        did = true;
        const Cycle now = sim().cycle();
        _streamCycles->sample(static_cast<double>(now - _streamStart));
        if (TraceSink *ts = sim().trace()) {
            ts->span("mem", "write-stream", name(), _streamStart, now,
                     {{"bytes", _cmdLen}});
        }
    }
    if (did) {
        _stall.account(StallClass::Busy);
        return;
    }
    StallClass c = StallClass::StallMem;
    if (!_active) {
        c = _cmdQ.occupancy() > 0 ? StallClass::StallUpstream
                                  : StallClass::StallCmd;
    } else if (done_ready || (_open.valid && !_wOut->canPush())) {
        // Done token or W channel backpressured.
        c = StallClass::StallDownstream;
    } else if (_stagedTotal < _cmdLen && !_dataQ.canPop()) {
        c = StallClass::StallUpstream;
    }
    _stall.account(c);
    sleepWith(_stall, c);
}

bool
Writer::startNextCommand()
{
    if (!_cmdQ.canPop())
        return false;
    const StreamCommand cmd = _cmdQ.pop();
    if (cmd.lenBytes == 0) {
        // A zero-length stream still completes (with an empty token).
        _active = true;
        _cursor = cmd.addr;
        _bytesLeft = 0;
        _bytesAcked = 0;
        _cmdLen = 0;
        _streamStart = sim().cycle();
        return true;
    }
    if (cmd.addr % _params.dataBytes != 0 ||
        cmd.lenBytes % _params.dataBytes != 0) {
        fatal("writer %s: stream [0x%llx, +%llu) not aligned to the "
              "%u-byte port width",
              name().c_str(),
              static_cast<unsigned long long>(cmd.addr),
              static_cast<unsigned long long>(cmd.lenBytes),
              _params.dataBytes);
    }
    _active = true;
    _cursor = cmd.addr;
    _bytesLeft = cmd.lenBytes;
    _bytesAcked = 0;
    _cmdLen = cmd.lenBytes;
    _stagedTotal = 0;
    _streamStart = sim().cycle();
    beethoven_assert(_stage.empty(),
                     "writer %s: stage residue across commands",
                     name().c_str());
    return true;
}

bool
Writer::acceptWords()
{
    // Accept only the current command's bytes; anything further on the
    // port belongs to the next command and must wait (otherwise bytes
    // of back-to-back commands would interleave in the stage).
    if (!_active || _stagedTotal >= _cmdLen || !_dataQ.canPop())
        return false;
    // One port word per cycle (the port is dataBytes wide).
    StreamWord w = _dataQ.pop();
    beethoven_assert(w.data.size() == _params.dataBytes,
                     "writer %s received %zu-byte word on %u-byte port",
                     name().c_str(), w.data.size(), _params.dataBytes);
    _stage.insert(_stage.end(), w.data.begin(), w.data.end());
    _stagedTotal += w.data.size();
    return true;
}

bool
Writer::emitFlits()
{
    bool did = false;
    if (!_active && !_open.valid)
        return false;

    // Open a new burst when the previous one has fully left and the
    // stage holds the burst's bytes (hardware writers gate the AW on
    // having the data to avoid stalling the shared W channel).
    if (!_open.valid && _bytesLeft > 0 &&
        _outstanding.size() < _params.maxInflight) {
        const Addr beat_addr = (_cursor / _bus.dataBytes) * _bus.dataBytes;
        const u64 offset = _cursor - beat_addr;
        const u64 max_bytes =
            u64(_params.burstBeats) * _bus.dataBytes - offset;
        const u64 txn_bytes = std::min<u64>(_bytesLeft, max_bytes);
        if (_stage.size() < txn_bytes)
            return false; // keep staging words from the core
        const u32 beats = static_cast<u32>(
            divCeil(offset + txn_bytes, _bus.dataBytes));

        _open.valid = true;
        _open.headerSent = false;
        _open.nextBeat = 0;
        _open.header.id =
            _idBase + static_cast<u32>(_txnSeq % _params.numIds());
        _open.header.addr = beat_addr;
        _open.header.beats = beats;
        _open.header.tag = sim().nextTag();
        _open.beats.assign(beats, WriteBeat{});
        for (u32 b = 0; b < beats; ++b) {
            WriteBeat &beat = _open.beats[b];
            beat.data.assign(_bus.dataBytes, 0);
            beat.last = b + 1 == beats;
            const u64 beat_lo = u64(b) * _bus.dataBytes;
            const u64 beat_hi = beat_lo + _bus.dataBytes;
            const u64 valid_lo = std::max<u64>(beat_lo, offset);
            const u64 valid_hi =
                std::min<u64>(beat_hi, offset + txn_bytes);
            const u64 lo = valid_lo - beat_lo;
            const u64 n = valid_hi - valid_lo;
            std::copy_n(_stage.data() + (valid_lo - offset), n,
                        beat.data.data() + lo);
            // Only a partial beat carries a strobe; empty means every
            // byte is enabled.
            if (n != _bus.dataBytes) {
                beat.strb.assign(_bus.dataBytes, false);
                std::fill_n(beat.strb.begin() + static_cast<long>(lo), n,
                            true);
            }
        }
        _stage.erase(_stage.begin(),
                     _stage.begin() + static_cast<long>(txn_bytes));
        _outstanding.emplace_back(_open.header.tag, txn_bytes);
        _cursor += txn_bytes;
        _bytesLeft -= txn_bytes;
        ++_txnSeq;
        ++*_statTxns;
        did = true;
    }

    if (!_open.valid || !_wOut->canPush())
        return did;

    WriteFlit flit;
    if (!_open.headerSent) {
        flit.hasHeader = true;
        flit.header = _open.header;
        _open.headerSent = true;
    }
    flit.beat = std::move(_open.beats[_open.nextBeat]);
    ++_open.nextBeat;
    *_statBytesWritten += _bus.dataBytes;
    _wOut->push(std::move(flit));
    if (_open.nextBeat == _open.beats.size()) {
        _open.valid = false;
        _open.beats.clear();
    }
    return true;
}

bool
Writer::receiveResponses()
{
    if (!_bIn->canPop())
        return false;
    const WriteResponse resp = _bIn->pop();
    for (auto it = _outstanding.begin(); it != _outstanding.end(); ++it) {
        if (it->first == resp.tag) {
            _bytesAcked += it->second;
            _outstanding.erase(it);
            return true;
        }
    }
    panic("writer %s received B for unknown tag %llu", name().c_str(),
          static_cast<unsigned long long>(resp.tag));
    return false;
}

} // namespace beethoven
