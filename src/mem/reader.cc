#include "mem/reader.h"

#include <algorithm>

#include "base/bits.h"
#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

Reader::Reader(Simulator &sim, std::string name,
               const ReaderParams &params, const AxiConfig &bus,
               u32 id_base, TimedQueue<ReadRequest> *ar_out,
               TimedQueue<ReadBeat> *r_in)
    : Module(sim, std::move(name)),
      _params(params),
      _bus(bus),
      _idBase(id_base),
      _arOut(ar_out),
      _rIn(r_in),
      _cmdQ(sim, params.cmdQueueDepth),
      _dataQ(sim, params.dataQueueDepth),
      _stall(sim, Module::name())
{
    beethoven_assert(params.dataBytes > 0, "reader port width 0");
    beethoven_assert(params.burstBeats >= 1 &&
                         params.burstBeats <= bus.maxBurstBeats,
                     "reader burst length %u exceeds bus limit %u",
                     params.burstBeats, bus.maxBurstBeats);
    StatGroup &g = sim.stats().group(Module::name());
    _statBytesRead = &g.scalar("bytesRead");
    _statTxns = &g.scalar("transactions");
    _streamCycles = &g.histogram("streamCycles");
    _streamCycles->configure(64, 64.0);
    declareRole("reader");
    declareSleepable();
    // Event-kernel wiring: every condition a blocked tick waits on is
    // a queue event on one of these four ports.
    _cmdQ.setWakeOnPush(this);
    _dataQ.setWakeOnPop(this);
    _arOut->setWakeOnPop(this);
    _rIn->setWakeOnPush(this);
}

bool
Reader::idle() const
{
    return !_active && _cmdQ.occupancy() == 0;
}

void
Reader::tick()
{
    bool did = false;
    if (!_active)
        did |= startNextCommand();
    if (issueRequests())
        did = true;
    if (receiveBeats())
        did = true;
    if (drainToCore())
        did = true;
    if (did) {
        _stall.account(StallClass::Busy);
        return;
    }
    StallClass c = StallClass::StallMem;
    if (!_active) {
        // Command queued but not yet visible counts as valid-wait.
        c = _cmdQ.occupancy() > 0 ? StallClass::StallUpstream
                                  : StallClass::StallCmd;
    } else if (!_dataQ.canPush() ||
               (_reqBytesLeft > 0 && !_arOut->canPush())) {
        c = StallClass::StallDownstream;
    }
    _stall.account(c);
    sleepWith(_stall, c);
}

bool
Reader::startNextCommand()
{
    if (!_cmdQ.canPop())
        return false;
    const StreamCommand cmd = _cmdQ.pop();
    if (cmd.lenBytes == 0)
        return true; // zero-length streams complete immediately
    if (cmd.addr % _params.dataBytes != 0 ||
        cmd.lenBytes % _params.dataBytes != 0) {
        fatal("reader %s: stream [0x%llx, +%llu) not aligned to the "
              "%u-byte port width",
              name().c_str(),
              static_cast<unsigned long long>(cmd.addr),
              static_cast<unsigned long long>(cmd.lenBytes),
              _params.dataBytes);
    }
    _active = true;
    _reqAddr = cmd.addr;
    _reqBytesLeft = cmd.lenBytes;
    _drainBytesLeft = cmd.lenBytes;
    _streamStart = sim().cycle();
    _streamBytes = cmd.lenBytes;
    return true;
}

bool
Reader::issueRequests()
{
    if (!_active || _reqBytesLeft == 0 || !_arOut->canPush())
        return false;
    if (_txns.size() >= _params.maxInflight)
        return false;

    // Prefetch-buffer capacity: beats held on chip across all inflight
    // transactions. Reserved at issue, released as the core drains.
    const std::size_t buffer_beats =
        static_cast<std::size_t>(_params.maxInflight) *
        _params.burstBeats;

    const Addr beat_addr = (_reqAddr / _bus.dataBytes) * _bus.dataBytes;
    const u64 offset = _reqAddr - beat_addr;
    const u64 max_bytes =
        u64(_params.burstBeats) * _bus.dataBytes - offset;
    const u64 txn_bytes = std::min<u64>(_reqBytesLeft, max_bytes);
    const u32 beats = static_cast<u32>(
        divCeil(offset + txn_bytes, _bus.dataBytes));

    if (_reservedBeats + beats > buffer_beats)
        return false;

    ReadRequest req;
    req.id = _idBase + static_cast<u32>(_txnSeq % _params.numIds());
    req.addr = beat_addr;
    req.beats = beats;
    req.tag = sim().nextTag();
    _arOut->push(req);

    Txn &txn = _txns.emplace_back();
    txn.tag = req.tag;
    txn.beats = beats;
    txn.startByte = static_cast<u32>(offset);
    txn.validBytes = txn_bytes;
    txn.bytes = std::move(_spareBytes);
    // Room for the longest burst, so a recycled buffer never regrows.
    txn.bytes.reserve(static_cast<std::size_t>(_params.burstBeats) *
                      _bus.dataBytes);
    _reservedBeats += beats;

    _reqAddr += txn_bytes;
    _reqBytesLeft -= txn_bytes;
    ++_txnSeq;
    ++*_statTxns;
    return true;
}

bool
Reader::receiveBeats()
{
    if (!_rIn->canPop())
        return false;
    ReadBeat beat = _rIn->pop();
    for (auto &txn : _txns) {
        if (txn.tag == beat.tag) {
            txn.bytes.insert(txn.bytes.end(), beat.data.begin(),
                             beat.data.end());
            return true;
        }
    }
    panic("reader %s received beat for unknown tag %llu", name().c_str(),
          static_cast<unsigned long long>(beat.tag));
    return false;
}

bool
Reader::drainToCore()
{
    if (!_dataQ.canPush())
        return false;
    // Pull bytes from the front (oldest-address) transaction into the
    // width-converter stage until one port word is complete.
    while (_wordStage.size() < _params.dataBytes) {
        if (_txns.empty())
            return false;
        Txn &txn = _txns.front();
        const u64 avail_end =
            std::min<u64>(txn.bytes.size() > txn.startByte
                              ? txn.bytes.size() - txn.startByte
                              : 0,
                          txn.validBytes);
        if (txn.drained >= avail_end)
            return false; // waiting on more beats for the front txn
        const u64 want = _params.dataBytes - _wordStage.size();
        const u64 take = std::min<u64>(want, avail_end - txn.drained);
        const u8 *src = txn.bytes.data() + txn.startByte + txn.drained;
        _wordStage.append(src, src + take);
        txn.drained += take;
        if (txn.drained == txn.validBytes &&
            txn.bytes.size() ==
                static_cast<std::size_t>(txn.beats) * _bus.dataBytes) {
            _reservedBeats -= txn.beats;
            txn.bytes.clear();
            _spareBytes = std::move(txn.bytes);
            _txns.pop_front();
        }
    }

    StreamWord word;
    word.data = std::move(_wordStage);
    _wordStage.clear();
    _dataQ.push(std::move(word));
    *_statBytesRead += _params.dataBytes;
    _drainBytesLeft -= _params.dataBytes;
    if (_drainBytesLeft == 0) {
        _active = false;
        const Cycle now = sim().cycle();
        _streamCycles->sample(static_cast<double>(now - _streamStart));
        if (TraceSink *ts = sim().trace()) {
            ts->span("mem", "read-stream", name(), _streamStart, now,
                     {{"bytes", _streamBytes}});
        }
    }
    return true;
}

} // namespace beethoven
