#include "verify/invariants.h"

#include <iostream>
#include <sstream>

#include "base/log.h"
#include "cmd/rocc.h"
#include "core/soc.h"

namespace beethoven
{

namespace
{

u64
routingKey(u32 system_id, u32 core_id, u32 rd)
{
    return (u64(system_id) << 16) | (u64(core_id) << 5) | rd;
}

} // namespace

// --- LiveAxiChecker ---------------------------------------------------

std::string
LiveAxiChecker::observe(const AxiEvent &e)
{
    ++_eventsSeen;
    std::ostringstream err;

    // ID-leak screen: transactions must use IDs the elaborator
    // actually handed out.
    const bool is_read =
        e.channel == AxiChannel::AR || e.channel == AxiChannel::R;
    const bool is_write = !is_read;
    if (is_read && _readIdBound != 0 && e.id >= _readIdBound) {
        err << axiChannelName(e.channel) << " uses read id " << e.id
            << " outside the allocated space [0, " << _readIdBound << ")";
        return err.str();
    }
    if (is_write && _writeIdBound != 0 && e.id >= _writeIdBound &&
        e.channel != AxiChannel::W) {
        // W beats are tag-matched, not ID-matched, but AW and B carry
        // real bus IDs.
        err << axiChannelName(e.channel) << " uses write id " << e.id
            << " outside the allocated space [0, " << _writeIdBound << ")";
        return err.str();
    }

    switch (e.channel) {
      case AxiChannel::AR:
        _reads[e.id].push_back({e.tag, e.beats});
        break;
      case AxiChannel::AW:
        _writes[e.id].push_back({e.tag, e.beats});
        _writeDataDone[e.tag] = false;
        break;
      case AxiChannel::R: {
        auto &q = _reads[e.id];
        if (q.empty()) {
            err << "R beat for id " << e.id << " with no outstanding read";
            return err.str();
        }
        Outstanding &head = q.front();
        if (head.tag != e.tag) {
            err << "R beat tag " << e.tag << " on id " << e.id
                << " violates same-ID ordering (expected tag " << head.tag
                << ")";
            return err.str();
        }
        ++head.beatsSeen;
        const bool should_be_last = head.beatsSeen == head.beatsExpected;
        if (e.last != should_be_last) {
            err << "R last flag mismatch on tag " << e.tag << " (beat "
                << head.beatsSeen << "/" << head.beatsExpected << ")";
            return err.str();
        }
        if (e.last)
            q.pop_front();
        break;
      }
      case AxiChannel::W: {
        bool found = false;
        for (auto &[id, q] : _writes) {
            for (auto &o : q) {
                if (o.tag == e.tag && o.beatsSeen < o.beatsExpected) {
                    ++o.beatsSeen;
                    const bool last = o.beatsSeen == o.beatsExpected;
                    if (e.last != last) {
                        err << "W last flag mismatch on tag " << e.tag;
                        return err.str();
                    }
                    if (last)
                        _writeDataDone[e.tag] = true;
                    found = true;
                    break;
                }
            }
            if (found)
                break;
        }
        if (!found) {
            err << "W beat with tag " << e.tag
                << " matches no outstanding write";
            return err.str();
        }
        break;
      }
      case AxiChannel::B: {
        auto &q = _writes[e.id];
        if (q.empty()) {
            err << "B response for id " << e.id
                << " with no outstanding write";
            return err.str();
        }
        if (q.front().tag != e.tag) {
            err << "B response tag " << e.tag << " on id " << e.id
                << " violates same-ID ordering";
            return err.str();
        }
        auto it = _writeDataDone.find(e.tag);
        if (it == _writeDataDone.end() || !it->second) {
            err << "B response before final W beat on tag " << e.tag;
            return err.str();
        }
        q.pop_front();
        _writeDataDone.erase(it);
        break;
      }
    }
    return "";
}

std::size_t
LiveAxiChecker::outstandingReads() const
{
    std::size_t n = 0;
    for (const auto &[id, q] : _reads)
        n += q.size();
    return n;
}

std::size_t
LiveAxiChecker::outstandingWrites() const
{
    std::size_t n = 0;
    for (const auto &[id, q] : _writes)
        n += q.size();
    return n;
}

bool
LiveAxiChecker::quiescent() const
{
    return outstandingReads() == 0 && outstandingWrites() == 0;
}

// --- SocInvariants ----------------------------------------------------

SocInvariants::SocInvariants(AcceleratorSoc &soc) : _soc(soc)
{
    _axi.setIdBounds(soc.readIdsInUse(), soc.writeIdsInUse());
    _timelineToken = soc.dram().timeline().addObserver(
        [this](const AxiEvent &e) { onAxiEvent(e); });
    soc.mmio().onCommand(
        [this](const RoccCommand &cmd) { onCommand(cmd); });
    soc.mmio().onResponse(
        [this](const RoccResponse &resp) { onResponse(resp); });
    soc.sim().registerInvariant(this);
}

SocInvariants::~SocInvariants()
{
    _soc.dram().timeline().removeObserver(_timelineToken);
    _soc.mmio().onCommand(nullptr);
    _soc.mmio().onResponse(nullptr);
    _soc.sim().unregisterInvariant(this);
}

void
SocInvariants::violation(const std::string &what)
{
    const Cycle cycle = _soc.sim().cycle();
    std::cerr << "=== invariant violation at cycle "
              << static_cast<unsigned long long>(cycle) << ": " << what
              << " ===\n";
    _soc.sim().dumpHangDiagnostics(std::cerr);
    fatal("invariant violation at cycle %llu: %s",
          static_cast<unsigned long long>(cycle), what.c_str());
}

void
SocInvariants::onAxiEvent(const AxiEvent &e)
{
    const std::string err = _axi.observe(e);
    if (!err.empty())
        violation("AXI protocol: " + err);
}

void
SocInvariants::onCommand(const RoccCommand &cmd)
{
    if (!cmd.xd())
        return;
    ++_xdSeen;
    ++_ledger[routingKey(cmd.systemId(), cmd.coreId(), cmd.rd())];
}

void
SocInvariants::onResponse(const RoccResponse &resp)
{
    ++_respsSeen;
    const u64 key = routingKey(resp.systemId, resp.coreId, resp.rd);
    auto it = _ledger.find(key);
    if (it == _ledger.end() || it->second <= 0) {
        std::ostringstream what;
        what << "response for system " << resp.systemId << " core "
             << resp.coreId << " rd " << resp.rd
             << " with no matching xd command beat";
        violation(what.str());
    }
    if (--it->second == 0)
        _ledger.erase(it);
}

void
SocInvariants::check(Cycle)
{
    // Event-time hooks enforce the per-event rules; this periodic pass
    // cross-checks the cumulative ledgers for drift.
    if (_respsSeen > _xdSeen) {
        std::ostringstream what;
        what << "response count " << _respsSeen
             << " exceeds xd command beats " << _xdSeen;
        violation(what.str());
    }
    for (const auto &[key, balance] : _ledger) {
        if (balance < 0) {
            std::ostringstream what;
            what << "negative response balance " << balance
                 << " for routing key 0x" << std::hex << key;
            violation(what.str());
        }
    }
}

void
SocInvariants::checkFinal()
{
    check(_soc.sim().cycle());
    if (!_axi.quiescent()) {
        std::ostringstream what;
        what << "AXI not quiescent at end of workload: "
             << _axi.outstandingReads() << " reads / "
             << _axi.outstandingWrites() << " writes outstanding";
        violation(what.str());
    }
    const std::size_t occ = _soc.nocOccupancy();
    if (occ != 0) {
        std::ostringstream what;
        what << "NoC fabric holds " << occ
             << " flits at end of workload (flit conservation)";
        violation(what.str());
    }
    if (!_ledger.empty()) {
        std::ostringstream what;
        what << _ledger.size()
             << " routing keys still await responses at end of workload";
        violation(what.str());
    }
}

} // namespace beethoven
