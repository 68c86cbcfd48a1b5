#include "dram/controller.h"

#include <algorithm>
#include <bit>
#include <ostream>

#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

namespace
{

/** @p cfg, once mapAddress() can map its geometry and one mask word
 *  holds its banks. */
const DramController::Config &
checkGeometry(const DramController::Config &cfg)
{
    const DramGeometry &g = cfg.geometry;
    if (g.nBankGroups == 0)
        fatal("DRAM geometry: nBankGroups is 0");
    if (g.banksPerGroup == 0)
        fatal("DRAM geometry: banksPerGroup is 0");
    if (u64(g.nBankGroups) * g.banksPerGroup > 64) {
        fatal("DRAM geometry: nBankGroups %u x banksPerGroup %u exceeds "
              "the controller's 64 banks",
              g.nBankGroups, g.banksPerGroup);
    }
    if (g.interleaveBytes == 0)
        fatal("DRAM geometry: interleaveBytes is 0");
    if (g.rowBytesPerBank < g.interleaveBytes) {
        fatal("DRAM geometry: rowBytesPerBank %u is below "
              "interleaveBytes %u",
              g.rowBytesPerBank, g.interleaveBytes);
    }
    return cfg;
}

} // namespace

DramController::DramController(Simulator &sim, std::string name,
                               const Config &cfg, FunctionalMemory &mem)
    : Module(sim, std::move(name)),
      _cfg(checkGeometry(cfg)),
      _mem(mem),
      _arIn(sim, cfg.portDepth),
      _wIn(sim, cfg.portDepth),
      _rOut(sim, cfg.portDepth),
      _bOut(sim, cfg.portDepth),
      _banks(cfg.geometry.numBanks()),
      _stall(sim, Module::name())
{
    StatGroup &g = sim.stats().group(Module::name());
    _statRowHits = &g.scalar("rowHits");
    _statRowMisses = &g.scalar("rowMisses");
    _statColReads = &g.scalar("colReads");
    _statColWrites = &g.scalar("colWrites");
    _statTurnarounds = &g.scalar("turnarounds");
    _statRefreshes = &g.scalar("refreshes");
    _latency[0] = &g.histogram("readLatency");
    _latency[1] = &g.histogram("writeLatency");
    for (StatHistogram *h : _latency)
        h->configure(64, 16.0);
    _nextRefreshAt = cfg.timing.tREFI;
    declareRole("dram");
    declareSleepable();
    declareSelfWake();
    // Event-kernel wiring: new requests and drained output ports wake
    // the controller; refresh timing is self-armed at sleep.
    _arIn.setWakeOnPush(this);
    _wIn.setWakeOnPush(this);
    _rOut.setWakeOnPop(this);
    _bOut.setWakeOnPop(this);
}

void
DramController::tick()
{
    bool did = acceptRequests();
    // All-bank refresh: every tREFI the banks precharge and the device
    // is unavailable for tRFC. Requests keep queueing meanwhile.
    const Cycle now = sim().cycle();
    if (now >= _nextRefreshAt) {
        for (BankState &bank : _banks) {
            bank.open = false;
            bank.actReadyAt = std::max(bank.actReadyAt,
                                       now + _cfg.timing.tRFC);
        }
        _hit[0] = _hit[1] = 0;
        _refreshUntil = now + _cfg.timing.tRFC;
        _nextRefreshAt = now + _cfg.timing.tREFI;
        ++*_statRefreshes;
    }
    if (now < _refreshUntil) {
        const ServiceResult rd = sendReadData(); // data may still drain
        const ServiceResult wr = sendWriteResponses();
        if (rd == ServiceResult::Done || wr == ServiceResult::Done)
            did = true;
        accountCycle(did, rd, wr, /*in_refresh=*/true);
        return;
    }
    // The row pass sees the view as it was before this cycle's column
    // issue (DESIGN §4b, tie-break 3). The issuing bank cannot take a
    // row command this cycle (its preReadyAt is at least now + 2), so
    // only the refill of the issuing burst's window, which reaches
    // other banks, has to wait for the row pass.
    Txn *const issued = scheduleColumn();
    const bool col = issued != nullptr;
    if (scheduleRowCommands())
        did = true;
    if (col)
        fillWindow(_lastColWasWrite, *issued);
    const ServiceResult rd = sendReadData();
    const ServiceResult wr = sendWriteResponses();
    if (col || rd == ServiceResult::Done || wr == ServiceResult::Done)
        did = true;
    trackIdWaits(col);
    accountCycle(did, rd, wr, /*in_refresh=*/false);
}

bool
DramController::acceptRequests()
{
    const Cycle now = sim().cycle();
    bool did = false;

    if (_arIn.canPop() && _side[0].count < _cfg.maxOutstandingReads) {
        const ReadRequest req = _arIn.pop();
        Txn &txn = accept(/*is_write=*/false, req.id, req.tag, req.addr,
                          req.beats);
        txn.beatsHere = txn.beats;
        if (txn.live)
            fillWindow(/*is_write=*/false, txn);
        did = true;
    }

    if (!_wIn.canPop())
        return did;
    const bool header = _wIn.front().hasHeader;
    if (header && _side[1].count >= _cfg.maxOutstandingWrites)
        return did; // stall the W channel until a slot frees
    beethoven_assert(header || _filling != nullptr,
                     "W data beat with no open write burst");
    WriteFlit f = _wIn.pop();
    // The header flit carries the first data beat.
    Txn &txn = header ? accept(/*is_write=*/true, f.header.id, f.header.tag,
                               f.header.addr, f.header.beats)
                      : *_filling;
    beethoven_assert(txn.beatsHere < txn.beats,
                     "W beat overruns its %u-beat write burst", txn.beats);
    _timeline.record({now, AxiChannel::W, txn.id, txn.tag, 0, 0,
                      f.beat.last});
    const u32 b = txn.beatsHere++;
    txn.beat[b].data = std::move(f.beat.data);
    if (!f.beat.strb.empty()) {
        txn.strb.resize(txn.beats);
        txn.strb[b] = std::move(f.beat.strb);
    }
    ++_pendingWriteBeats;
    if (txn.live)
        fillWindow(/*is_write=*/true, txn);
    if (f.beat.last) {
        beethoven_assert(txn.beatsHere == txn.beats,
                         "write burst ended after %u/%u beats",
                         txn.beatsHere, txn.beats);
    }
    _filling = f.beat.last ? nullptr : &txn;
    return true;
}

DramController::Txn &
DramController::accept(bool is_write, u32 id, u64 tag, Addr addr, u32 beats)
{
    beethoven_assert(beats >= 1 && beats <= _cfg.axi.maxBurstBeats,
                     "illegal %s burst length %u",
                     is_write ? "write" : "read", beats);
    const Cycle now = sim().cycle();
    Side &side = _side[is_write];
    auto it = side.ids.find(id);
    if (it == side.ids.end()) {
        if (_spareIds.empty()) {
            it = side.ids.try_emplace(id).first;
        } else {
            // An emptied queue's node, reset: its gate has passed and
            // its wait counters belong to its old ID.
            auto node = std::move(_spareIds.back());
            _spareIds.pop_back();
            node.key() = id;
            node.mapped() = {};
            it = side.ids.insert(std::move(node)).position;
        }
    }
    std::list<Txn> &txns = it->second.txns;
    if (_spareTxns.empty()) {
        // Every burst's block fits the longest burst, so a recycled
        // one never regrows.
        txns.emplace_back().beat.reserve(_cfg.axi.maxBurstBeats);
    } else {
        txns.splice(txns.end(), _spareTxns, _spareTxns.begin());
    }
    Txn &txn = txns.back();
    ++side.count;
    txn.seq = _seqCounter++;
    txn.tag = tag;
    txn.id = id;
    txn.acceptedAt = now;
    txn.addr = addr;
    txn.beats = beats;
    txn.beatsHere = txn.beatsIssued = txn.beatsSent = 0;
    txn.live = txns.size() == 1; // an idle ID has no gate to wait for
    txn.exposed = txn.windowEnd = 0;
    txn.beat.clear();
    txn.beat.resize(beats);
    txn.strb.clear();
    for (u32 b = 0; b < beats; ++b) {
        txn.beat[b].coord = mapAddress(
            _cfg.geometry, addr + static_cast<Addr>(b) * _cfg.axi.dataBytes);
    }
    _timeline.record({now, is_write ? AxiChannel::AW : AxiChannel::AR, id,
                      tag, addr, beats, false});
    return txn;
}

void
DramController::fillWindow(bool is_write, Txn &txn)
{
    // The window is the first schedulerWindow arrived beats not yet
    // issued (the command-queue lookahead of a real controller).
    while (txn.exposed < _cfg.schedulerWindow &&
           txn.windowEnd < txn.beatsHere) {
        const u32 b = txn.windowEnd++;
        const DramCoord &coord = txn.beat[b].coord;
        BankState &bank = _banks[coord.bank];
        std::vector<ViewEntry> &view = bank.view[is_write];
        const ViewEntry e{txn.seq, b, coord.row, &txn};
        const auto pos = std::upper_bound(view.begin(), view.end(), e);
        const auto i = static_cast<u32>(pos - view.begin());
        view.insert(pos, e);
        ++txn.exposed;
        ++_exposedBeats[is_write];
        // Keep the bank's first row hit: an insert before it shifts
        // it, and a hit inserted at or before it replaces it.
        const u64 bit = u64(1) << coord.bank;
        const bool had_hit = (_hit[is_write] & bit) != 0;
        if (had_hit && i <= bank.hit[is_write])
            ++bank.hit[is_write];
        if (bank.open && coord.row == bank.row &&
            (!had_hit || i < bank.hit[is_write])) {
            bank.hit[is_write] = i;
            _hit[is_write] |= bit;
        }
        _busy |= bit;
    }
}

void
DramController::updateDrainMode()
{
    // Write-drain mode switching (watermark policy): service reads
    // until enough write beats have buffered up (or no reads remain),
    // then drain writes as a batch. This amortizes bus turnarounds the
    // way real DDR controllers do.
    const bool exists[2] = {_exposedBeats[0] != 0, _exposedBeats[1] != 0};
    if (_writeDrainMode) {
        if (!exists[1])
            _writeDrainMode = false;
    } else {
        if (_pendingWriteBeats >= _cfg.writeDrainHighWatermark ||
            (!exists[0] && exists[1])) {
            _writeDrainMode = true;
        }
    }
}

unsigned
DramController::readyHit(bool w) const
{
    // FR-FCFS: the oldest beat, by (seq, beat index), among the banks
    // whose first row hit in this direction may take a column command.
    // Each bank's view is sorted, so its first hit is its oldest.
    const Cycle now = sim().cycle();
    // Bus turnaround: switching direction costs tSwitch idle cycles.
    if (_anyColIssued && w != _lastColWasWrite &&
        now < _lastColAt + _cfg.timing.tSwitch) {
        return kNoBank;
    }
    unsigned best = kNoBank;
    const ViewEntry *best_beat = nullptr;
    for (u64 m = _hit[w]; m != 0; m &= m - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(m));
        const BankState &bank = _banks[b];
        if (now < bank.colReadyAt)
            continue;
        const ViewEntry &hit = bank.view[w][bank.hit[w]];
        if (best_beat == nullptr || hit < *best_beat) {
            best = b;
            best_beat = &hit;
        }
    }
    return best;
}

void
DramController::seekHit(unsigned b, bool w, std::size_t from)
{
    BankState &bank = _banks[b];
    const std::vector<ViewEntry> &view = bank.view[w];
    const u64 bit = u64(1) << b;
    for (std::size_t i = from; i < view.size(); ++i) {
        if (view[i].row == bank.row) {
            bank.hit[w] = static_cast<u32>(i);
            _hit[w] |= bit;
            return;
        }
    }
    _hit[w] &= ~bit;
}

DramController::Txn *
DramController::scheduleColumn()
{
    const Cycle now = sim().cycle();
    // Open the recycle gates that are due. Refresh cycles never read
    // the view, so a gate falling due in one opens here, next time.
    auto gate = _gates.begin();
    for (; gate != _gates.end() && gate->at <= now; ++gate) {
        gate->txn->live = true;
        fillWindow(gate->isWrite, *gate->txn);
    }
    _gates.erase(_gates.begin(), gate);

    updateDrainMode();

    // AXI same-ID ordering: only the oldest transaction on each ID is
    // live, so only its beats are in the view. This is the
    // serialization that penalizes single-ID streams (Fig. 5's HLS
    // kernel).
    //
    // Serve the drain direction; if it has nothing ready this cycle,
    // fall back to the other direction rather than idling the data
    // bus (work-conserving, as real controllers are).
    bool w = _writeDrainMode;
    unsigned b = readyHit(w);
    if (b == kNoBank) {
        w = !w;
        b = readyHit(w);
        if (b == kNoBank)
            return nullptr;
    }

    BankState &bank = _banks[b];
    std::vector<ViewEntry> &view = bank.view[w];
    const u32 i = bank.hit[w];
    Txn &txn = *view[i].txn;
    const u32 beat_idx = view[i].beatIdx;
    Beat &beat = txn.beat[beat_idx];
    beethoven_assert(view[i].row == bank.row && !beat.issued,
                     "bank %u's row hit is stale", b);
    bank.colReadyAt = now + 1;
    bank.preReadyAt = std::max(bank.preReadyAt, now + 2);
    if (_anyColIssued && w != _lastColWasWrite)
        ++*_statTurnarounds;
    _lastColAt = now;
    _lastColWasWrite = w;
    _anyColIssued = true;
    ++*_statRowHits;
    ++_beatsServed;

    const Addr addr =
        txn.addr + static_cast<Addr>(beat_idx) * _cfg.axi.dataBytes;
    if (w) {
        if (txn.strb.empty() || txn.strb[beat_idx].empty())
            _mem.write(addr, beat.data.size(), beat.data.data());
        else
            _mem.writeMasked(addr, beat.data, txn.strb[beat_idx]);
        --_pendingWriteBeats;
        ++*_statColWrites;
    } else {
        beat.readyAt = now + _cfg.timing.tCAS;
        beat.data.resize(_cfg.axi.dataBytes);
        _mem.read(addr, beat.data.size(), beat.data.data());
        ++*_statColReads;
    }
    _lastColId = txn.id;
    beat.issued = true;
    ++txn.beatsIssued;
    view.erase(view.begin() + i);
    seekHit(b, w, i);
    if (bank.view[0].empty() && bank.view[1].empty())
        _busy &= ~(u64(1) << b);
    --txn.exposed;
    --_exposedBeats[w];
    return &txn;
}

bool
DramController::scheduleRowCommands()
{
    const Cycle now = sim().cycle();
    // For each bank only the oldest beat in its view may steer row
    // state (drain direction first): this prevents younger requests
    // from closing a row an older request is about to use. A bank with
    // a row hit *in the active drain direction* (_hit[drain]) is not
    // precharged out from under it, so it is not walked at all;
    // off-direction hits cannot issue until the mode flips, so they
    // must not pin rows — that would deadlock against the drain
    // policy.
    //
    // One row command (ACT or PRE) per cycle: prepare banks for the
    // current drain direction first, oldest request first, and on a
    // tie (one burst steering several banks) the lowest bank first.
    // Activation constraints shared by every bank: tRRD, and tFAW's
    // four ACTs per window.
    const bool can_act = now >= _nextActAt && now >= _fawEnds[_fawNext];
    const bool drain = _writeDrainMode;
    unsigned pick = kNoBank;
    const ViewEntry *pick_beat = nullptr;
    bool pick_drain = false; ///< pick_beat is in the drain direction
    for (u64 m = _busy & ~_hit[drain]; m != 0; m &= m - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(m));
        const BankState &bank = _banks[b];
        const bool in_drain = !bank.view[drain].empty();
        const ViewEntry &c = bank.view[in_drain ? drain : !drain].front();
        if (pick != kNoBank && (in_drain == pick_drain
                                    ? c.seq >= pick_beat->seq
                                    : pick_drain)) {
            continue; // ordered after the current pick
        }
        const bool ready = bank.open
                               ? bank.row != c.row && now >= bank.preReadyAt
                               : now >= bank.actReadyAt && can_act;
        if (ready) {
            pick = b;
            pick_beat = &c;
            pick_drain = in_drain;
        }
    }
    if (pick == kNoBank)
        return false;
    BankState &bank = _banks[pick];
    if (bank.open) {
        bank.open = false;
        bank.actReadyAt = std::max(bank.actReadyAt, now + _cfg.timing.tRP);
        _hit[0] &= ~(u64(1) << pick);
        _hit[1] &= ~(u64(1) << pick);
        ++*_statRowMisses;
        return true;
    }
    bank.open = true;
    bank.row = pick_beat->row;
    bank.colReadyAt = now + _cfg.timing.tRCD;
    bank.preReadyAt = now + _cfg.timing.tRAS;
    seekHit(pick, false, 0);
    seekHit(pick, true, 0);
    _nextActAt = now + _cfg.timing.tRRD;
    _fawEnds[_fawNext] = now + _cfg.timing.tFAW;
    _fawNext = (_fawNext + 1) % 4;
    return true;
}

DramController::ServiceResult
DramController::sendReadData()
{
    const Cycle now = sim().cycle();
    std::map<u32, IdQueue> &ids = _side[0].ids;
    if (ids.empty())
        return ServiceResult::None;
    // Within an ID only the head transaction's in-order next beat may
    // be sent (AXI burst + same-ID ordering).
    auto ready = [now](const IdQueue &q) {
        const Txn &txn = q.txns.front();
        const Beat &next = txn.beat[txn.beatsSent];
        return next.issued && now >= next.readyAt;
    };
    if (!_rOut.canPush()) {
        // Anything ready to go? Then the port is the bottleneck.
        for (const auto &[id, q] : ids) {
            if (ready(q))
                return ServiceResult::Blocked;
        }
        return ServiceResult::None;
    }
    // Round-robin across IDs.
    auto start = ids.lower_bound(_rrReadId);
    if (start == ids.end())
        start = ids.begin();
    auto it = start;
    do {
        if (ready(it->second)) {
            Txn &txn = it->second.txns.front();
            ReadBeat beat;
            beat.id = txn.id;
            beat.tag = txn.tag;
            beat.last = txn.beatsSent + 1 == txn.beats;
            beat.data = std::move(txn.beat[txn.beatsSent].data);
            _timeline.record({now, AxiChannel::R, beat.id, beat.tag, 0, 0,
                              beat.last});
            ++txn.beatsSent;
            const bool done = beat.last;
            _rOut.push(std::move(beat));
            _rrReadId = it->first + 1;
            if (done)
                retire(/*is_write=*/false, it);
            return ServiceResult::Done;
        }
        if (++it == ids.end())
            it = ids.begin();
    } while (it != start);
    return ServiceResult::None;
}

DramController::ServiceResult
DramController::sendWriteResponses()
{
    const Cycle now = sim().cycle();
    std::map<u32, IdQueue> &ids = _side[1].ids;
    // By ascending ID: the first head with every beat written answers.
    auto it = std::find_if(ids.begin(), ids.end(), [](const auto &e) {
        const Txn &txn = e.second.txns.front();
        return txn.beatsIssued == txn.beats;
    });
    if (it == ids.end())
        return ServiceResult::None;
    if (!_bOut.canPush())
        return ServiceResult::Blocked;
    const Txn &txn = it->second.txns.front();
    const WriteResponse resp{txn.id, txn.tag};
    _timeline.record({now, AxiChannel::B, resp.id, resp.tag, 0, 0, false});
    _bOut.push(resp);
    retire(/*is_write=*/true, it);
    return ServiceResult::Done;
}

void
DramController::retire(bool is_write, std::map<u32, IdQueue>::iterator it)
{
    const Cycle now = sim().cycle();
    IdQueue &q = it->second;
    const Txn &txn = q.txns.front();
    _latency[is_write]->sample(static_cast<double>(now - txn.acceptedAt));
    if (TraceSink *ts = sim().trace()) {
        ts->span("axi", is_write ? "wr" : "rd",
                 name() + (is_write ? ".wr.id" : ".rd.id") +
                     std::to_string(txn.id),
                 txn.acceptedAt, now,
                 {{"addr", txn.addr}, {"beats", txn.beats}, {"id", txn.id}});
    }
    if (_filling == &txn)
        _filling = nullptr; // its final beat lacked the last flag
    _spareTxns.splice(_spareTxns.begin(), q.txns, q.txns.begin());
    --_side[is_write].count;
    // A successor already queued behind the head was held back by the
    // same-ID ordering dependence and pays the reorder-slot recycle; a
    // fresh request arriving later starts with a clean slot (the gate
    // has passed by the time the queue empties, so its entry can go).
    if (!q.txns.empty()) {
        q.readyAt = now + _cfg.sameIdRecycleCycles;
        _gates.push_back({q.readyAt, is_write, &q.txns.front()});
    } else {
        _spareIds.push_back(_side[is_write].ids.extract(it));
    }
}

void
DramController::trackIdWaits(bool col_issued)
{
    // For every AXI ID with a pending head transaction that did not get
    // a column command this cycle, attribute the wait: same-ID
    // reorder-slot recycle (queueWait) vs. bank timing / arbitration
    // (bankWait). This is the per-ID split behind the fig5 latency gap.
    const Cycle now = sim().cycle();
    for (const bool w : {false, true}) {
        for (auto &[id, q] : _side[w].ids) {
            if (col_issued && _lastColWasWrite == w && _lastColId == id)
                continue;
            const bool gated = now < q.readyAt;
            if (!gated && !q.txns.front().waiting())
                continue;
            if (q.queueWait == nullptr) {
                StatGroup &g = sim()
                                   .stats()
                                   .group(name())
                                   .group("ids")
                                   .group((w ? "wr" : "rd") +
                                          std::to_string(id));
                q.queueWait = &g.scalar("queueWait");
                q.bankWait = &g.scalar("bankWait");
            }
            ++*(gated ? q.queueWait : q.bankWait);
        }
    }
}

void
DramController::accountCycle(bool did, ServiceResult rd, ServiceResult wr,
                             bool in_refresh)
{
    if (did) {
        _stall.account(StallClass::Busy);
        return;
    }
    if (rd == ServiceResult::Blocked || wr == ServiceResult::Blocked) {
        _stall.account(StallClass::StallDownstream);
        return;
    }
    if (_side[0].count == 0 && _side[1].count == 0 && !_arIn.canPop() &&
        !_wIn.canPop()) {
        _stall.account(StallClass::Idle);
        // Fully drained: no transaction state, no per-ID wait tracking,
        // nothing poppable. The only autonomous future event is the
        // refresh window, so arm it and quiesce; new AR/W pushes wake
        // us earlier. The controller must NOT sleep in any other state:
        // trackIdWaits and bank timing mutate digest-visible stats
        // every cycle transactions are in flight.
        requestWakeAt(_nextRefreshAt);
        sleepWith(_stall, StallClass::Idle);
        return;
    }
    if (in_refresh) {
        _stall.account(StallClass::StallMem);
        return;
    }
    if (_side[0].count == 0 && _filling != nullptr) {
        // Only writes in flight and a burst is mid-fill: waiting on the
        // producer to deliver W beats.
        _stall.account(StallClass::StallUpstream);
        return;
    }
    // Bank timing, recycle gates, turnaround — the device itself.
    _stall.account(StallClass::StallMem);
}

void
DramController::dumpInFlight(std::ostream &os) const
{
    const Cycle now = sim().cycle();
    os << name() << " in-flight: " << _side[0].count << " reads, "
       << _side[1].count << " writes\n";
    for (const bool w : {false, true}) {
        for (const auto &[id, q] : _side[w].ids) {
            for (const Txn &txn : q.txns) {
                os << (w ? "  wr" : "  rd") << " tag=" << txn.tag
                   << " id=" << id << " addr=0x" << std::hex << txn.addr
                   << std::dec << " beats=" << txn.beats
                   << " received=" << txn.beatsHere
                   << " issued=" << txn.beatsIssued
                   << " sent=" << txn.beatsSent
                   << " age=" << (now - txn.acceptedAt) << "\n";
            }
        }
    }
}

} // namespace beethoven
