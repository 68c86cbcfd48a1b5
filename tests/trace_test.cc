/**
 * @file
 * Tests for the tracing subsystem: span/instant/counter recording,
 * Chrome trace_event serialization (validated by parsing it back),
 * process/track bookkeeping, the event cap, and the simulator's
 * per-window counter sampling.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "base/json.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace beethoven
{
namespace
{

/** Parse the sink's Chrome trace output and return the event array. */
JsonValue
parsedEvents(const TraceSink &sink)
{
    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonValue root = parseJson(os.str());
    const JsonValue *events = root.find("traceEvents");
    EXPECT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    return *events;
}

const JsonValue *
findByName(const JsonValue &events, const std::string &name)
{
    for (const JsonValue &e : events.array) {
        const JsonValue *n = e.find("name");
        if (n != nullptr && n->string == name)
            return &e;
    }
    return nullptr;
}

TEST(TraceSink, RecordsNestedSpans)
{
    TraceSink sink;
    // An outer transaction span with a nested sub-operation on the
    // same track, the way cmd dispatch wraps memory streams.
    sink.span("cmd", "outer", "core0", 10, 100);
    sink.span("mem", "inner", "core0", 20, 60);
    EXPECT_EQ(sink.numEvents(), 2u);
    EXPECT_TRUE(sink.hasCategory("cmd"));
    EXPECT_TRUE(sink.hasCategory("mem"));
    EXPECT_FALSE(sink.hasCategory("axi"));

    const JsonValue events = parsedEvents(sink);
    const JsonValue *outer = findByName(events, "outer");
    const JsonValue *inner = findByName(events, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->find("ph")->string, "X");
    EXPECT_DOUBLE_EQ(outer->find("ts")->number, 10.0);
    EXPECT_DOUBLE_EQ(outer->find("dur")->number, 90.0);
    // Same track -> same thread lane in the viewer.
    EXPECT_DOUBLE_EQ(outer->find("tid")->number,
                     inner->find("tid")->number);
    // Nesting holds: inner lies within outer.
    EXPECT_GE(inner->find("ts")->number, outer->find("ts")->number);
    EXPECT_LE(inner->find("ts")->number + inner->find("dur")->number,
              outer->find("ts")->number + outer->find("dur")->number);
}

TEST(TraceSink, SpanArgsAndInstantsSerialize)
{
    TraceSink sink;
    sink.span("axi", "rd", "ddr.id0", 5, 25,
              {{"addr", 0x1000}, {"beats", 16}});
    sink.instant("cmd", "drop", "host", 7);

    const JsonValue events = parsedEvents(sink);
    const JsonValue *rd = findByName(events, "rd");
    ASSERT_NE(rd, nullptr);
    const JsonValue *args = rd->find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->find("addr")->number, double(0x1000));
    EXPECT_DOUBLE_EQ(args->find("beats")->number, 16.0);

    const JsonValue *drop = findByName(events, "drop");
    ASSERT_NE(drop, nullptr);
    EXPECT_EQ(drop->find("ph")->string, "i");
    EXPECT_DOUBLE_EQ(drop->find("ts")->number, 7.0);
}

TEST(TraceSink, CounterTracksCarryValues)
{
    TraceSink sink;
    sink.counter("noc", "ar.occ", 0, 0.0);
    sink.counter("noc", "ar.occ", 32, 3.0);
    sink.counter("noc", "ar.occ", 64, 1.0);

    const JsonValue events = parsedEvents(sink);
    unsigned samples = 0;
    double at32 = -1.0;
    for (const JsonValue &e : events.array) {
        const JsonValue *ph = e.find("ph");
        if (ph == nullptr || ph->string != "C")
            continue;
        ++samples;
        EXPECT_EQ(e.find("name")->string, "ar.occ");
        if (e.find("ts")->number == 32.0)
            at32 = e.find("args")->find("value")->number;
    }
    EXPECT_EQ(samples, 3u);
    EXPECT_DOUBLE_EQ(at32, 3.0);
}

TEST(TraceSink, ProcessScopesSeparatePids)
{
    TraceSink sink;
    sink.beginProcess("run-a");
    sink.span("cmd", "a", "t", 0, 1);
    sink.beginProcess("run-b");
    sink.span("cmd", "b", "t", 0, 1);

    const JsonValue events = parsedEvents(sink);
    const JsonValue *a = findByName(events, "a");
    const JsonValue *b = findByName(events, "b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a->find("pid")->number, b->find("pid")->number);

    // Both process names appear as metadata.
    unsigned names = 0;
    for (const JsonValue &e : events.array) {
        const JsonValue *ph = e.find("ph");
        const JsonValue *name = e.find("name");
        if (ph != nullptr && ph->string == "M" && name != nullptr &&
            name->string == "process_name")
            ++names;
    }
    EXPECT_GE(names, 2u);
}

TEST(TraceSink, EventCapCountsDrops)
{
    TraceSink sink;
    sink.setMaxEvents(2);
    for (int i = 0; i < 5; ++i)
        sink.span("cmd", "s", "t", i, i + 1);
    EXPECT_EQ(sink.numEvents(), 2u);
    EXPECT_EQ(sink.droppedEvents(), 3u);
    std::ostringstream os;
    sink.writeSummary(os);
    EXPECT_NE(os.str().find("dropped"), std::string::npos);
}

TEST(TraceSink, ProfileAggregatesPerTrack)
{
    TraceSink sink;
    sink.span("axi", "rd", "ddr", 0, 10);
    sink.span("axi", "rd", "ddr", 10, 40);
    std::ostringstream os;
    sink.writeProfile(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("ddr"), std::string::npos);
    EXPECT_NE(out.find("20.0"), std::string::npos); // mean duration
}

TEST(Simulator, TraceDefaultsToNull)
{
    Simulator sim;
    EXPECT_EQ(sim.trace(), nullptr);
    TraceSink sink;
    sim.attachTrace(&sink);
    EXPECT_EQ(sim.trace(), &sink);
}

TEST(Simulator, CounterSamplersRunPerWindowOnlyWhileTracing)
{
    std::vector<Cycle> untraced_calls;
    Simulator untraced;
    untraced.addCounterSampler(
        [&](TraceSink &, Cycle at) { untraced_calls.push_back(at); });
    untraced.run(2100);
    EXPECT_TRUE(untraced_calls.empty());

    std::vector<Cycle> calls;
    Simulator sim;
    TraceSink sink;
    sim.attachTrace(&sink);
    sim.addCounterSampler([&](TraceSink &ts, Cycle at) {
        calls.push_back(at);
        ts.counter("noc", "q.occ", at, 1.0);
    });
    sim.run(2100);
    EXPECT_EQ(calls, (std::vector<Cycle>{1024, 2048}));
    EXPECT_EQ(sink.numEvents(), 2u);
}

} // namespace
} // namespace beethoven
