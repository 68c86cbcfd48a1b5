#include "baselines/raw_memcpy.h"

#include <algorithm>

#include "base/bits.h"
#include "base/log.h"

namespace beethoven
{

RawAxiMemcpy::RawAxiMemcpy(Simulator &sim, std::string name,
                           const Params &params, DramController &ctrl)
    : Module(sim, std::move(name)),
      _params(params),
      _ctrl(ctrl),
      _busBytes(ctrl.config().axi.dataBytes)
{}

void
RawAxiMemcpy::start(Addr src, Addr dst, u64 len_bytes)
{
    beethoven_assert(!_active, "start() while a copy is active");
    beethoven_assert(len_bytes % _busBytes == 0 &&
                         src % _busBytes == 0 && dst % _busBytes == 0,
                     "raw memcpy requires bus-beat alignment");
    _src = src;
    _dst = dst;
    _len = len_bytes;
    _active = len_bytes > 0;
    _readIssuedBytes = 0;
    _readReceivedPrefix = 0;
    _writeIssuedBytes = 0;
    _writeAckedBytes = 0;
    _buffer.assign(len_bytes, 0);
    _beatReceived.assign(len_bytes / _busBytes, false);
    _reads.clear();
    _writeBytes.clear();
    _wOpen = false;
}

bool
RawAxiMemcpy::done() const
{
    return !_active;
}

void
RawAxiMemcpy::tick()
{
    if (!_active)
        return;
    issueReads();
    receiveReadData();
    issueWrites();
    receiveWriteResponses();
    if (_writeAckedBytes == _len)
        _active = false;
}

void
RawAxiMemcpy::issueReads()
{
    if (_readIssuedBytes >= _len ||
        _reads.size() >= _params.maxInflightReads ||
        !_ctrl.arPort().canPush()) {
        return;
    }
    const u64 burst_bytes = u64(_params.burstBeats) * _busBytes;
    const u64 bytes = std::min<u64>(burst_bytes, _len - _readIssuedBytes);
    ReadRequest req;
    req.id = _params.readIdBase +
             (_params.distinctIds
                  ? static_cast<u32>(_txnSeqRead %
                                     _params.maxInflightReads)
                  : 0);
    req.addr = _src + _readIssuedBytes;
    req.beats = static_cast<u32>(divCeil(bytes, _busBytes));
    req.tag = sim().nextTag();
    _ctrl.arPort().push(req);
    _reads.emplace(req.tag, PendingRead{_readIssuedBytes, 0, bytes});
    _readIssuedBytes += bytes;
    ++_txnSeqRead;
}

void
RawAxiMemcpy::receiveReadData()
{
    if (!_ctrl.rPort().canPop())
        return;
    ReadBeat beat = _ctrl.rPort().pop();
    auto it = _reads.find(beat.tag);
    beethoven_assert(it != _reads.end(), "R beat for unknown tag");
    PendingRead &txn = it->second;
    const u64 dst_off = txn.offset + txn.received;
    const u64 n = std::min<u64>(beat.data.size(), txn.bytes - txn.received);
    std::copy_n(beat.data.begin(), n, _buffer.begin() + dst_off);
    txn.received += n;
    // Mark the beat and advance the contiguous prefix available to the
    // write side.
    _beatReceived[dst_off / _busBytes] = true;
    while (_readReceivedPrefix < _len &&
           _beatReceived[_readReceivedPrefix / _busBytes]) {
        _readReceivedPrefix += _busBytes;
    }
    if (beat.last) {
        beethoven_assert(txn.received == txn.bytes,
                         "short read burst: %llu of %llu bytes",
                         static_cast<unsigned long long>(txn.received),
                         static_cast<unsigned long long>(txn.bytes));
        _reads.erase(it);
    }
}

void
RawAxiMemcpy::issueWrites()
{
    // Stream the open burst first.
    if (_wOpen && _ctrl.wPort().canPush()) {
        WriteFlit flit;
        if (!_wHeaderSent) {
            flit.hasHeader = true;
            flit.header = _wHeader;
            _wHeaderSent = true;
        }
        flit.beat.data.assign(_buffer.begin() + _wOffset,
                              _buffer.begin() + _wOffset + _busBytes);
        _wOffset += _busBytes;
        --_wBeatsLeft;
        flit.beat.last = _wBeatsLeft == 0;
        _ctrl.wPort().push(std::move(flit));
        if (_wBeatsLeft == 0)
            _wOpen = false;
        return;
    }
    if (_wOpen)
        return;
    if (_writeIssuedBytes >= _len ||
        _writeBytes.size() >= _params.maxInflightWrites) {
        return;
    }
    const u64 burst_bytes = u64(_params.burstBeats) * _busBytes;
    const u64 bytes =
        std::min<u64>(burst_bytes, _len - _writeIssuedBytes);
    // Only write data that has been read (contiguous prefix).
    if (_readReceivedPrefix < _writeIssuedBytes + bytes)
        return;
    _wHeader.id = _params.writeIdBase +
                  (_params.distinctIds
                       ? static_cast<u32>(_txnSeqWrite %
                                          _params.maxInflightWrites)
                       : 0);
    _wHeader.addr = _dst + _writeIssuedBytes;
    _wHeader.beats = static_cast<u32>(divCeil(bytes, _busBytes));
    _wHeader.tag = sim().nextTag();
    _wOffset = _writeIssuedBytes;
    _wBeatsLeft = _wHeader.beats;
    _wHeaderSent = false;
    _wOpen = true;
    _writeBytes.emplace(_wHeader.tag, bytes);
    _writeIssuedBytes += bytes;
    ++_txnSeqWrite;
}

void
RawAxiMemcpy::receiveWriteResponses()
{
    if (!_ctrl.bPort().canPop())
        return;
    const WriteResponse resp = _ctrl.bPort().pop();
    auto it = _writeBytes.find(resp.tag);
    beethoven_assert(it != _writeBytes.end(), "B for unknown tag");
    _writeAckedBytes += it->second;
    _writeBytes.erase(it);
}

} // namespace beethoven
