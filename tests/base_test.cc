/**
 * @file
 * Tests for statistics, RNG determinism, logging behaviour, and type
 * literals.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/json.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/types.h"

namespace beethoven
{
namespace
{

TEST(SizeLiterals, Values)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(1_MiB, 1048576u);
    EXPECT_EQ(2_GiB, 2147483648ull);
}

TEST(Stats, ScalarAccumulates)
{
    StatScalar s;
    EXPECT_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    s++;
    EXPECT_DOUBLE_EQ(s.value(), 4.5);
    s.set(1.0);
    EXPECT_DOUBLE_EQ(s.value(), 1.0);
}

TEST(Stats, HistogramBuckets)
{
    StatHistogram h;
    h.configure(4, 10.0);
    for (double v : {1.0, 5.0, 15.0, 25.0, 35.0, 1000.0})
        h.sample(v);
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    const auto &b = h.buckets();
    ASSERT_EQ(b.size(), 5u); // 4 + overflow
    EXPECT_EQ(b[0], 2u);     // 1, 5
    EXPECT_EQ(b[1], 1u);     // 15
    EXPECT_EQ(b[2], 1u);     // 25
    EXPECT_EQ(b[3], 1u);     // 35
    EXPECT_EQ(b[4], 1u);     // 1000 overflows
}

TEST(Stats, HistogramNegativeSampleKeepsMin)
{
    // Regression: a single negative sample must report its own value
    // as the minimum (and land in the first bucket), not 0.
    StatHistogram h;
    h.configure(4, 10.0);
    h.sample(-3.0);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), -3.0);
    EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(Stats, HistogramEmptyMinMax)
{
    StatHistogram h;
    h.configure(4, 10.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Stats, HistogramPercentileEmptyReturnsZero)
{
    // Regression: percentile() on a histogram with no samples (or one
    // never configured) must return 0, not divide by zero or index an
    // empty bucket vector.
    StatHistogram unconfigured;
    EXPECT_DOUBLE_EQ(unconfigured.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(unconfigured.percentile(99.0), 0.0);

    StatHistogram empty;
    empty.configure(8, 4.0);
    EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(empty.percentile(100.0), 0.0);
}

TEST(Stats, HistogramPercentiles)
{
    StatHistogram h;
    h.configure(10, 10.0);
    // 100 samples, one per unit, 0.5 .. 99.5.
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    // Bucketed percentiles resolve to bucket upper edges...
    EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(90), 90.0);
    // ...clamped to the observed maximum in the last occupied bucket.
    EXPECT_DOUBLE_EQ(h.percentile(95), 99.5);
    EXPECT_DOUBLE_EQ(h.percentile(99), 99.5);
    EXPECT_DOUBLE_EQ(h.percentile(100), 99.5);
}

TEST(Stats, HistogramPercentileOverflowBucket)
{
    StatHistogram h;
    h.configure(2, 10.0);
    h.sample(5.0);
    h.sample(500.0);
    // The overflow bucket reports the observed max.
    EXPECT_DOUBLE_EQ(h.percentile(99), 500.0);
}

TEST(Stats, FindHistogramByDottedPath)
{
    StatGroup root("soc");
    StatHistogram &h = root.group("ddr").histogram("readLatency");
    h.configure(8, 16.0);
    h.sample(12.0);
    const StatHistogram *found =
        root.findHistogram("ddr.readLatency");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->samples(), 1u);
    EXPECT_EQ(root.findHistogram("ddr.nope"), nullptr);
    EXPECT_EQ(root.findHistogram("nope.readLatency"), nullptr);
}

TEST(Stats, GroupByPathNestsDottedNames)
{
    StatGroup root("soc");
    root.groupByPath("noc.ar").scalar("flits") += 9;
    // The dotted path creates real nesting, so dotted lookup works.
    const StatScalar *flits = root.findScalar("noc.ar.flits");
    ASSERT_NE(flits, nullptr);
    EXPECT_DOUBLE_EQ(flits->value(), 9.0);
    // Same path returns the same group.
    EXPECT_EQ(&root.groupByPath("noc.ar"), &root.group("noc").group("ar"));
}

TEST(Stats, DumpJsonParsesBackWithPercentiles)
{
    StatGroup root("soc");
    root.scalar("cycles") += 123;
    StatHistogram &h = root.group("ddr").histogram("readLatency");
    h.configure(8, 16.0);
    for (int i = 0; i < 32; ++i)
        h.sample(i * 4.0);
    std::ostringstream os;
    root.dumpJson(os);

    const JsonValue v = parseJson(os.str());
    const JsonValue *scalars = v.find("scalars");
    ASSERT_NE(scalars, nullptr);
    const JsonValue *cycles = scalars->find("cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_DOUBLE_EQ(cycles->number, 123.0);

    const JsonValue *groups = v.find("groups");
    ASSERT_NE(groups, nullptr);
    const JsonValue *ddr = groups->find("ddr");
    ASSERT_NE(ddr, nullptr);
    const JsonValue *hists = ddr->find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *lat = hists->find("readLatency");
    ASSERT_NE(lat, nullptr);
    for (const char *key : {"samples", "mean", "min", "max", "p50",
                            "p95", "p99"}) {
        ASSERT_NE(lat->find(key), nullptr) << key;
    }
    EXPECT_DOUBLE_EQ(lat->find("samples")->number, 32.0);
    EXPECT_LE(lat->find("p50")->number, lat->find("p95")->number);
    EXPECT_LE(lat->find("p95")->number, lat->find("p99")->number);
}

TEST(Json, ParsesNestedStructures)
{
    const JsonValue v = parseJson(
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x\"y\n"}, "d": true,)"
        R"( "e": null})");
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
    const JsonValue *c = v.find("b")->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->string, "x\"y\n");
    EXPECT_TRUE(v.find("d")->boolean);
    EXPECT_EQ(v.find("e")->type, JsonValue::Type::Null);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), ConfigError);
    EXPECT_THROW(parseJson("[1, ]"), ConfigError);
    EXPECT_THROW(parseJson("{\"a\": 1} trailing"), ConfigError);
    EXPECT_THROW(parseJson("\"unterminated"), ConfigError);
}

/** @p s as jsonString() writes it. */
std::string
jsonLiteral(const std::string &s)
{
    std::ostringstream os;
    os << jsonString(s);
    return os.str();
}

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonLiteral("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(jsonLiteral("\t\r"), "\"\\t\\r\"");
    EXPECT_EQ(jsonLiteral(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
    EXPECT_EQ(jsonLiteral(""), "\"\"");
}

TEST(Json, EscapedControlCharactersRoundTrip)
{
    // Every byte below 0x20, plus the two that must be escaped and a
    // plain tail: the parser must return exactly the original string.
    std::string s;
    for (int c = 0; c < 0x20; ++c)
        s += static_cast<char>(c);
    s += "\"\\ plain";
    const JsonValue v = parseJson(jsonLiteral(s));
    ASSERT_TRUE(v.isString());
    EXPECT_EQ(v.string, s);
}

TEST(Stats, GroupHierarchyAndLookup)
{
    StatGroup root("soc");
    root.group("dram").scalar("rowHits") += 3;
    root.group("dram").scalar("rowHits") += 2;
    root.group("core0").group("reader").scalar("bytes") += 64;

    const StatScalar *hits = root.findScalar("dram.rowHits");
    ASSERT_NE(hits, nullptr);
    EXPECT_DOUBLE_EQ(hits->value(), 5.0);
    const StatScalar *bytes = root.findScalar("core0.reader.bytes");
    ASSERT_NE(bytes, nullptr);
    EXPECT_DOUBLE_EQ(bytes->value(), 64.0);
    EXPECT_EQ(root.findScalar("nope.nothing"), nullptr);
    EXPECT_EQ(root.findScalar("dram.missing"), nullptr);
}

TEST(Stats, DumpContainsDottedPaths)
{
    StatGroup root("soc");
    root.group("mem").scalar("reads") += 7;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("soc.mem.reads = 7"), std::string::npos);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2u);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        const u64 v = rng.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
    EXPECT_EQ(rng.nextBounded(0), 0u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, RoughlyUniform)
{
    Rng rng(99);
    std::array<unsigned, 8> buckets{};
    for (int i = 0; i < 8000; ++i)
        ++buckets[rng.nextBounded(8)];
    for (unsigned count : buckets) {
        EXPECT_GT(count, 800u);
        EXPECT_LT(count, 1200u);
    }
}

TEST(Log, FatalThrowsConfigError)
{
    EXPECT_THROW(fatal("user misconfigured %s", "something"),
                 ConfigError);
    try {
        fatal("value %d too large", 99);
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("value 99 too large"),
                  std::string::npos);
    }
}

TEST(Log, AssertPassesOnTrue)
{
    beethoven_assert(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

} // namespace
} // namespace beethoven
