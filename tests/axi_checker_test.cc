/**
 * @file
 * Tests for the AXI protocol checkers themselves: the post-hoc
 * checkAxiProtocol and the live LiveAxiChecker must catch each class
 * of violation (fabricated illegal streams) and accept legal ones.
 */

#include <gtest/gtest.h>

#include "axi/timeline.h"
#include "verify/invariants.h"

namespace beethoven
{
namespace
{

AxiEvent
ev(Cycle c, AxiChannel ch, u32 id, u64 tag, u32 beats = 0,
   bool last = false)
{
    AxiEvent e;
    e.cycle = c;
    e.channel = ch;
    e.id = id;
    e.tag = tag;
    e.beats = beats;
    e.last = last;
    return e;
}

TEST(AxiChecker, AcceptsLegalRead)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AR, 1, 100, 2),
        ev(5, AxiChannel::R, 1, 100, 0, false),
        ev(6, AxiChannel::R, 1, 100, 0, true),
    };
    EXPECT_EQ(checkAxiProtocol(events), "");
}

TEST(AxiChecker, AcceptsLegalWrite)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AW, 2, 200, 2),
        ev(0, AxiChannel::W, 2, 200, 0, false),
        ev(1, AxiChannel::W, 2, 200, 0, true),
        ev(9, AxiChannel::B, 2, 200),
    };
    EXPECT_EQ(checkAxiProtocol(events), "");
}

TEST(AxiChecker, CatchesOrphanReadBeat)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::R, 1, 100, 0, true),
    };
    EXPECT_NE(checkAxiProtocol(events), "");
}

TEST(AxiChecker, CatchesSameIdReorder)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AR, 1, 100, 1),
        ev(1, AxiChannel::AR, 1, 101, 1),
        // Younger transaction's data first: illegal on one ID.
        ev(5, AxiChannel::R, 1, 101, 0, true),
        ev(6, AxiChannel::R, 1, 100, 0, true),
    };
    const std::string err = checkAxiProtocol(events);
    EXPECT_NE(err.find("same-ID ordering"), std::string::npos) << err;
}

TEST(AxiChecker, AllowsCrossIdReorder)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AR, 1, 100, 1),
        ev(1, AxiChannel::AR, 2, 101, 1),
        ev(5, AxiChannel::R, 2, 101, 0, true),
        ev(6, AxiChannel::R, 1, 100, 0, true),
    };
    EXPECT_EQ(checkAxiProtocol(events), "");
}

TEST(AxiChecker, CatchesWrongLastFlag)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AR, 1, 100, 2),
        ev(5, AxiChannel::R, 1, 100, 0, true), // last too early
    };
    EXPECT_NE(checkAxiProtocol(events).find("last"),
              std::string::npos);
}

TEST(AxiChecker, CatchesMissingLastFlag)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AR, 1, 100, 1),
        ev(5, AxiChannel::R, 1, 100, 0, false), // should be last
    };
    EXPECT_NE(checkAxiProtocol(events), "");
}

TEST(AxiChecker, CatchesEarlyWriteResponse)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AW, 2, 200, 2),
        ev(0, AxiChannel::W, 2, 200, 0, false),
        ev(1, AxiChannel::B, 2, 200), // before the final W beat
    };
    EXPECT_NE(checkAxiProtocol(events).find("before final W"),
              std::string::npos);
}

TEST(AxiChecker, CatchesOrphanWriteBeat)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::W, 2, 999, 0, true),
    };
    EXPECT_NE(checkAxiProtocol(events), "");
}

TEST(AxiChecker, CatchesOrphanB)
{
    std::vector<AxiEvent> events = {
        ev(0, AxiChannel::B, 2, 999),
    };
    EXPECT_NE(checkAxiProtocol(events), "");
}

TEST(AxiTimeline, RenderProducesRowsPerTransaction)
{
    AxiTimeline tl;
    tl.setEnabled(true);
    tl.record(ev(0, AxiChannel::AR, 1, 100, 2));
    tl.record(ev(5, AxiChannel::R, 1, 100, 0, false));
    tl.record(ev(6, AxiChannel::R, 1, 100, 0, true));
    tl.record(ev(2, AxiChannel::AW, 2, 200, 1));
    tl.record(ev(2, AxiChannel::W, 2, 200, 0, true));
    tl.record(ev(8, AxiChannel::B, 2, 200));
    std::ostringstream os;
    tl.render(os, 60);
    const std::string out = os.str();
    EXPECT_NE(out.find("RD id=1"), std::string::npos);
    EXPECT_NE(out.find("WR id=2"), std::string::npos);
    EXPECT_NE(out.find('A'), std::string::npos);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(AxiTimeline, DisabledRecordsNothing)
{
    AxiTimeline tl;
    tl.record(ev(0, AxiChannel::AR, 1, 100, 1));
    EXPECT_TRUE(tl.events().empty());
}

/**
 * Feed @p events to a fresh checker bounded to 4 read and 4 write IDs.
 * Every event but the last must be legal; @return the last one's
 * verdict.
 */
std::string
liveVerdict(const std::vector<AxiEvent> &events)
{
    LiveAxiChecker checker;
    checker.setIdBounds(4, 4);
    for (std::size_t i = 0; i + 1 < events.size(); ++i) {
        const std::string msg = checker.observe(events[i]);
        EXPECT_EQ(msg, "") << "event " << i;
    }
    return checker.observe(events.back());
}

TEST(LiveAxiChecker, AcceptsLegalInterleavedTraffic)
{
    LiveAxiChecker checker;
    checker.setIdBounds(4, 4);
    const std::vector<AxiEvent> events = {
        ev(0, AxiChannel::AR, 1, 100, 2),
        ev(0, AxiChannel::AW, 3, 200, 2),
        ev(1, AxiChannel::W, 9, 200, 0, false), // W is tag-matched
        ev(2, AxiChannel::AR, 0, 101, 1),
        ev(3, AxiChannel::R, 0, 101, 0, true),
        ev(4, AxiChannel::W, 9, 200, 0, true),
        ev(5, AxiChannel::R, 1, 100, 0, false),
        ev(6, AxiChannel::R, 1, 100, 0, true),
        ev(7, AxiChannel::B, 3, 200),
    };
    for (const AxiEvent &e : events)
        EXPECT_EQ(checker.observe(e), "");
    EXPECT_TRUE(checker.quiescent());
    EXPECT_EQ(checker.eventsSeen(), events.size());
}

TEST(LiveAxiChecker, IdBoundMessages)
{
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AR, 4, 100, 1)}),
              "AR uses read id 4 outside the allocated space [0, 4)");
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AW, 5, 200, 1)}),
              "AW uses write id 5 outside the allocated space [0, 4)");
}

TEST(LiveAxiChecker, ReadDataMessages)
{
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::R, 1, 100, 0, true)}),
              "R beat for id 1 with no outstanding read");
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AR, 1, 100, 1),
                           ev(1, AxiChannel::AR, 1, 101, 1),
                           ev(5, AxiChannel::R, 1, 101, 0, true)}),
              "R beat tag 101 on id 1 violates same-ID ordering "
              "(expected tag 100)");
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AR, 1, 100, 2),
                           ev(5, AxiChannel::R, 1, 100, 0, true)}),
              "R last flag mismatch on tag 100 (beat 1/2)");
}

TEST(LiveAxiChecker, WriteDataMessages)
{
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AW, 2, 200, 2),
                           ev(1, AxiChannel::W, 2, 200, 0, true)}),
              "W last flag mismatch on tag 200");
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::W, 2, 300, 0, true)}),
              "W beat with tag 300 matches no outstanding write");
}

TEST(LiveAxiChecker, WriteResponseMessages)
{
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::B, 3, 200)}),
              "B response for id 3 with no outstanding write");
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AW, 2, 200, 1),
                           ev(0, AxiChannel::AW, 2, 201, 1),
                           ev(1, AxiChannel::W, 2, 200, 0, true),
                           ev(2, AxiChannel::W, 2, 201, 0, true),
                           ev(9, AxiChannel::B, 2, 201)}),
              "B response tag 201 on id 2 violates same-ID ordering");
    EXPECT_EQ(liveVerdict({ev(0, AxiChannel::AW, 2, 200, 2),
                           ev(1, AxiChannel::W, 2, 200, 0, false),
                           ev(2, AxiChannel::B, 2, 200)}),
              "B response before final W beat on tag 200");
}

} // namespace
} // namespace beethoven
