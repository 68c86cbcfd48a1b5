#include "axi/timeline.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "base/log.h"

namespace beethoven
{

const char *
axiChannelName(AxiChannel c)
{
    switch (c) {
      case AxiChannel::AR: return "AR";
      case AxiChannel::R:  return "R";
      case AxiChannel::AW: return "AW";
      case AxiChannel::W:  return "W";
      case AxiChannel::B:  return "B";
    }
    return "?";
}

namespace
{

/** Per-transaction summary assembled from the raw event stream. */
struct TxnRow
{
    bool isRead = false;
    u32 id = 0;
    u64 tag = 0;
    Cycle reqCycle = 0;
    std::vector<Cycle> beatCycles;
    Cycle doneCycle = 0;
};

/** A violation's description, streamed from @p parts. Only failing
 *  checks build one; legal events never touch a stream. */
template <typename... Parts>
std::string
describe(const Parts &...parts)
{
    std::ostringstream err;
    (err << ... << parts);
    return err.str();
}

std::vector<TxnRow>
assembleRows(const std::vector<AxiEvent> &events)
{
    std::vector<TxnRow> rows;
    std::map<u64, std::size_t> read_rows, write_rows;
    for (const auto &e : events) {
        switch (e.channel) {
          case AxiChannel::AR: {
            TxnRow row;
            row.isRead = true;
            row.id = e.id;
            row.tag = e.tag;
            row.reqCycle = e.cycle;
            read_rows[e.tag] = rows.size();
            rows.push_back(row);
            break;
          }
          case AxiChannel::AW: {
            TxnRow row;
            row.isRead = false;
            row.id = e.id;
            row.tag = e.tag;
            row.reqCycle = e.cycle;
            write_rows[e.tag] = rows.size();
            rows.push_back(row);
            break;
          }
          case AxiChannel::R: {
            auto it = read_rows.find(e.tag);
            if (it == read_rows.end())
                break;
            rows[it->second].beatCycles.push_back(e.cycle);
            if (e.last)
                rows[it->second].doneCycle = e.cycle;
            break;
          }
          case AxiChannel::W: {
            auto it = write_rows.find(e.tag);
            if (it == write_rows.end())
                break;
            rows[it->second].beatCycles.push_back(e.cycle);
            break;
          }
          case AxiChannel::B: {
            auto it = write_rows.find(e.tag);
            if (it == write_rows.end())
                break;
            rows[it->second].doneCycle = e.cycle;
            break;
          }
        }
    }
    return rows;
}

} // namespace

void
AxiTimeline::render(std::ostream &os, unsigned width) const
{
    if (_events.empty()) {
        os << "(no AXI activity recorded)\n";
        return;
    }
    Cycle t0 = _events.front().cycle;
    Cycle t1 = t0;
    for (const auto &e : _events)
        t1 = std::max(t1, e.cycle);
    const double span = static_cast<double>(t1 - t0 + 1);
    auto col = [&](Cycle c) -> unsigned {
        return static_cast<unsigned>(
            static_cast<double>(c - t0) / span * (width - 1));
    };

    os << "cycles " << t0 << " .. " << t1
       << "  ('A' request accepted, '=' data beat, '#' completion)\n";
    for (const auto &row : assembleRows(_events)) {
        std::string line(width, ' ');
        line[col(row.reqCycle)] = 'A';
        for (Cycle c : row.beatCycles) {
            char &ch = line[col(c)];
            if (ch == ' ')
                ch = '=';
        }
        if (row.doneCycle >= row.reqCycle)
            line[col(row.doneCycle)] = '#';
        std::ostringstream label;
        label << (row.isRead ? "RD" : "WR") << " id=" << row.id
              << " tag=" << row.tag;
        os << line << " | " << label.str() << "\n";
    }
}

std::string
LiveAxiChecker::observe(const AxiEvent &e)
{
    ++_eventsSeen;

    // ID-leak screen: transactions must use IDs the elaborator
    // actually handed out.
    const bool is_read =
        e.channel == AxiChannel::AR || e.channel == AxiChannel::R;
    const bool is_write = !is_read;
    if (is_read && _readIdBound != 0 && e.id >= _readIdBound) {
        return describe(axiChannelName(e.channel), " uses read id ", e.id,
                        " outside the allocated space [0, ", _readIdBound,
                        ")");
    }
    if (is_write && _writeIdBound != 0 && e.id >= _writeIdBound &&
        e.channel != AxiChannel::W) {
        // W beats are tag-matched, not ID-matched, but AW and B carry
        // real bus IDs.
        return describe(axiChannelName(e.channel), " uses write id ", e.id,
                        " outside the allocated space [0, ", _writeIdBound,
                        ")");
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
            return describe("R beat for id ", e.id,
                            " with no outstanding read");
        }
        // Same-ID ordering: data must belong to the oldest txn.
        Outstanding &head = q.front();
        if (head.tag != e.tag) {
            return describe("R beat tag ", e.tag, " on id ", e.id,
                            " violates same-ID ordering (expected tag ",
                            head.tag, ")");
        }
        ++head.beatsSeen;
        const bool should_be_last = head.beatsSeen == head.beatsExpected;
        if (e.last != should_be_last) {
            return describe("R last flag mismatch on tag ", e.tag,
                            " (beat ", head.beatsSeen, "/",
                            head.beatsExpected, ")");
        }
        if (e.last)
            q.pop_front();
        break;
      }
      case AxiChannel::W: {
        // Find the oldest incomplete write burst with this tag.
        bool found = false;
        for (auto &[id, q] : _writes) {
            for (auto &o : q) {
                if (o.tag == e.tag && o.beatsSeen < o.beatsExpected) {
                    ++o.beatsSeen;
                    const bool last = o.beatsSeen == o.beatsExpected;
                    if (e.last != last)
                        return describe("W last flag mismatch on tag ", e.tag);
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
            return describe("W beat with tag ", e.tag,
                            " matches no outstanding write");
        }
        break;
      }
      case AxiChannel::B: {
        auto &q = _writes[e.id];
        if (q.empty()) {
            return describe("B response for id ", e.id,
                            " with no outstanding write");
        }
        if (q.front().tag != e.tag) {
            return describe("B response tag ", e.tag, " on id ", e.id,
                            " violates same-ID ordering");
        }
        auto it = _writeDataDone.find(e.tag);
        if (it == _writeDataDone.end() || !it->second)
            return describe("B response before final W beat on tag ", e.tag);
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

std::string
checkAxiProtocol(const std::vector<AxiEvent> &events)
{
    LiveAxiChecker checker;
    for (const AxiEvent &e : events) {
        std::string err = checker.observe(e);
        if (!err.empty())
            return err;
    }
    return "";
}

} // namespace beethoven
