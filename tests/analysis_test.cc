/**
 * @file
 * Unit tests for the simulation-graph static analyzer (src/analysis/):
 * one positive and one negative case per BTH1xx code over hand-built
 * SimGraph IR, the graph lowering of a real elaborated SoC, the
 * planted-wake catch path (a lost-wake bug flagged WITHOUT running a
 * single cycle), and the static/dynamic pairing with the differential
 * fuzz harness.
 */

#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "analysis/sim_graph.h"
#include "base/log.h"
#include "core/soc.h"
#include "lint/lint.h"
#include "sim/graph_record.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"
#include "verify/traffic.h"

namespace beethoven
{
namespace
{

using analysis::GraphEdge;
using analysis::GraphModule;
using analysis::kNoIndex;
using analysis::SimGraph;
using verify::FuzzCase;
using verify::FuzzKind;
using verify::FuzzSystem;

/** Minimal two-module graph: producer feeds consumer over one queue. */
SimGraph
pairGraph()
{
    SimGraph g;
    GraphModule prod;
    prod.name = "prod";
    GraphModule cons;
    cons.name = "cons";
    g.modules = {prod, cons};
    GraphEdge e;
    e.site = "tests/synthetic:1";
    e.capacity = 4;
    e.latency = 1;
    e.producer = 0;
    e.consumer = 1;
    e.pushWakeArmed = true;
    e.pushWakeTarget = 1;
    g.edges = {e};
    return g;
}

// --- BTH100: sleepable consumer without an armed push-wake ----------

TEST(GraphRules, Bth100FiresOnSleepableConsumerWithoutPushWake)
{
    SimGraph g = pairGraph();
    g.modules[1].sleepable = true;
    g.modules[1].sleepSite = "tests/synthetic:2";
    g.edges[0].pushWakeArmed = false;
    g.edges[0].pushWakeTarget = kNoIndex;
    // Keep the module reachable through a pop-wake so only BTH100
    // (not BTH102) is under test.
    g.edges[0].popWakeArmed = true;
    g.edges[0].producer = 1;
    const auto rep = analysis::analyzeGraph(g);
    EXPECT_TRUE(rep.has("BTH100"));
}

TEST(GraphRules, Bth100SilentWhenPushWakeArmedOrConsumerPolls)
{
    SimGraph g = pairGraph();
    g.modules[1].sleepable = true;
    EXPECT_FALSE(analysis::analyzeGraph(g).has("BTH100"));

    // A poll-driven (never-sleeping) consumer needs no push-wake.
    SimGraph g2 = pairGraph();
    g2.edges[0].pushWakeArmed = false;
    g2.edges[0].pushWakeTarget = kNoIndex;
    EXPECT_FALSE(analysis::analyzeGraph(g2).has("BTH100"));
}

// --- BTH101: push-wake armed at a module that is not the consumer --

TEST(GraphRules, Bth101FiresOnMisdirectedPushWake)
{
    SimGraph g = pairGraph();
    g.edges[0].pushWakeTarget = 0; // armed at the producer, not 'cons'
    const auto rep = analysis::analyzeGraph(g);
    EXPECT_TRUE(rep.has("BTH101"));
}

TEST(GraphRules, Bth101SilentWhenWakeTargetsTheConsumer)
{
    EXPECT_FALSE(analysis::analyzeGraph(pairGraph()).has("BTH101"));
}

// --- BTH102: sleepable module with no reachable wake source --------

TEST(GraphRules, Bth102FiresOnUnwakeableSleeper)
{
    SimGraph g;
    GraphModule m;
    m.name = "stuck";
    m.sleepable = true;
    m.sleepSite = "tests/synthetic:3";
    g.modules = {m};
    const auto rep = analysis::analyzeGraph(g);
    EXPECT_TRUE(rep.has("BTH102"));
    EXPECT_TRUE(rep.hasErrors());
}

TEST(GraphRules, Bth102SilentWithPushWakePopWakeOrSelfWake)
{
    // Push-wake reachable.
    EXPECT_FALSE([] {
        SimGraph g = pairGraph();
        g.modules[1].sleepable = true;
        return analysis::analyzeGraph(g).has("BTH102");
    }());
    // Pop-wake reachable (producer side).
    EXPECT_FALSE([] {
        SimGraph g = pairGraph();
        g.modules[0].sleepable = true;
        g.edges[0].popWakeArmed = true;
        return analysis::analyzeGraph(g).has("BTH102");
    }());
    // Self-wake (e.g. the DRAM refresh timer).
    EXPECT_FALSE([] {
        SimGraph g;
        GraphModule m;
        m.name = "timer";
        m.sleepable = true;
        m.selfWake = true;
        g.modules = {m};
        return analysis::analyzeGraph(g).has("BTH102");
    }());
}

// --- BTH103: self-wake declared without a sleep site ---------------

TEST(GraphRules, Bth103FiresOnSelfWakeWithoutSleep)
{
    SimGraph g;
    GraphModule m;
    m.name = "dead-arm";
    m.selfWake = true;
    m.selfWakeSite = "tests/synthetic:4";
    g.modules = {m};
    EXPECT_TRUE(analysis::analyzeGraph(g).has("BTH103"));
}

TEST(GraphRules, Bth103SilentWhenPaired)
{
    SimGraph g;
    GraphModule m;
    m.name = "timer";
    m.selfWake = true;
    m.sleepable = true;
    g.modules = {m};
    EXPECT_FALSE(analysis::analyzeGraph(g).has("BTH103"));
}

// --- BTH104: zero-latency wake cycles ------------------------------

TEST(GraphRules, Bth104FiresOnZeroLatencyCycle)
{
    // a -> b -> a, both hops armed push-wakes through latency-0 queues.
    SimGraph g;
    GraphModule a, b;
    a.name = "a";
    b.name = "b";
    g.modules = {a, b};
    GraphEdge ab, ba;
    ab.producer = 0;
    ab.consumer = 1;
    ab.pushWakeArmed = true;
    ab.pushWakeTarget = 1;
    ab.latency = 0;
    ba.producer = 1;
    ba.consumer = 0;
    ba.pushWakeArmed = true;
    ba.pushWakeTarget = 0;
    ba.latency = 0;
    g.edges = {ab, ba};
    const auto rep = analysis::analyzeGraph(g);
    EXPECT_TRUE(rep.has("BTH104"));
    EXPECT_TRUE(rep.hasErrors());
}

TEST(GraphRules, Bth104SilentWhenAnyHopHasLatency)
{
    SimGraph g;
    GraphModule a, b;
    a.name = "a";
    b.name = "b";
    g.modules = {a, b};
    GraphEdge ab, ba;
    ab.producer = 0;
    ab.consumer = 1;
    ab.pushWakeArmed = true;
    ab.pushWakeTarget = 1;
    ab.latency = 0;
    ba.producer = 1;
    ba.consumer = 0;
    ba.pushWakeArmed = true;
    ba.pushWakeTarget = 0;
    ba.latency = 1; // a real TimedQueue: breaks the same-cycle loop
    g.edges = {ab, ba};
    EXPECT_FALSE(analysis::analyzeGraph(g).has("BTH104"));
}

// --- BTH105: producer is its own push-wake target ------------------

TEST(GraphRules, Bth105FiresOnSelfWakeLoop)
{
    SimGraph g = pairGraph();
    g.edges[0].pushWakeTarget = 0; // producer wakes itself on push
    EXPECT_TRUE(analysis::analyzeGraph(g).has("BTH105"));
}

TEST(GraphRules, Bth105SilentOnNormalWiring)
{
    EXPECT_FALSE(analysis::analyzeGraph(pairGraph()).has("BTH105"));
}

// --- Real-SoC lowering, census, and the planted-wake catch ---------

FuzzCase
memcpyCase()
{
    FuzzCase c;
    c.seed = 7;
    FuzzSystem sys;
    sys.kind = FuzzKind::Memcpy;
    sys.nCores = 1;
    c.systems.push_back(sys);
    return c;
}

TEST(SocAnalysis, ElaboratedSocIsAnalyzeClean)
{
    const verify::FuzzPlatform platform(memcpyCase().platform);
    const AcceleratorSoc soc(verify::buildAcceleratorConfig(memcpyCase()),
                             platform);
    const auto rep = soc.analyzeGraph();
    EXPECT_TRUE(rep.diagnostics().empty()) << rep.format();
}

TEST(SocAnalysis, CensusMatchesCompositionModel)
{
    const verify::FuzzPlatform platform(memcpyCase().platform);
    const AcceleratorSoc soc(verify::buildAcceleratorConfig(memcpyCase()),
                             platform);
    EXPECT_FALSE(soc.analyzeGraph().has("BTH106"));

    // Against a DIFFERENT composition's model the census must flag
    // the role-count skew (positive case for BTH106).
    FuzzCase bigger = memcpyCase();
    bigger.systems[0].nCores = 2;
    const AcceleratorConfig bigger_config =
        verify::buildAcceleratorConfig(bigger);
    const auto model = lint::buildCompositionModel(bigger_config, platform);
    const analysis::SimGraph g = analysis::buildSimGraph(soc.sim());
    EXPECT_TRUE(analysis::analyzeGraph(g, &model).has("BTH106"));
}

TEST(SocAnalysis, PlantedMissingPushWakeIsCaughtStatically)
{
    // The bug --plant-lost-wake=N plants dynamically (a wake that
    // never arrives) is planted here at its root cause — an unarmed
    // push-wake — and must be flagged BEFORE a single cycle runs.
    analysis::ScopedDeferGraphValidation defer;
    plantMissingPushWake(1);
    const verify::FuzzPlatform platform(memcpyCase().platform);
    const AcceleratorSoc soc(verify::buildAcceleratorConfig(memcpyCase()),
                             platform);
    plantMissingPushWake(0);
    EXPECT_EQ(soc.sim().cycle(), 0u) << "analysis must not simulate";
    const auto rep = soc.analyzeGraph();
    EXPECT_TRUE(rep.has("BTH100")) << rep.format();
    EXPECT_TRUE(rep.hasErrors());
}

TEST(SocAnalysis, PlantedMissingPushWakeFailsElaboration)
{
    // Without the deferral the constructor-tail validation must
    // reject the planted graph outright.
    plantMissingPushWake(1);
    const verify::FuzzPlatform platform(memcpyCase().platform);
    EXPECT_THROW(
        {
            const AcceleratorSoc soc(
                verify::buildAcceleratorConfig(memcpyCase()), platform);
        },
        ConfigError);
    plantMissingPushWake(0);
}

TEST(SocAnalysis, StaticAndDynamicCatchesPairUp)
{
    // The differential harness catches the planted lost wake at run
    // time; the analyzer catches the same bug class at build time.
    FuzzCase c = memcpyCase();
    verify::RandomTrafficGen traffic(99);
    traffic.generate(c, 1);
    c.plantLostWake = 7;
    verify::FuzzOptions opt;
    opt.differential = true;
    const verify::FuzzResult dynamic_catch = verify::runFuzzCase(c, opt);
    EXPECT_NE(dynamic_catch.kind, verify::FailKind::None);

    c.plantLostWake = 0;
    c.plantWakeViolation = 1;
    lint::DiagnosticReport static_rep;
    {
        analysis::ScopedDeferGraphValidation defer;
        plantMissingPushWake(c.plantWakeViolation);
        const verify::FuzzPlatform platform(c.platform);
        const AcceleratorSoc soc(verify::buildAcceleratorConfig(c),
                                 platform);
        plantMissingPushWake(0);
        static_rep = soc.analyzeGraph();
    }
    EXPECT_TRUE(static_rep.has("BTH100"));
}

// --- Registry ------------------------------------------------------

TEST(ShardReport, EveryAnalyzerCodeIsRegisteredWithStableLayer)
{
    for (const char *code :
         {"BTH100", "BTH101", "BTH102", "BTH103", "BTH104", "BTH105",
          "BTH106"}) {
        const auto *info = lint::findDiagnosticCode(code);
        ASSERT_NE(info, nullptr) << code;
        EXPECT_EQ(std::string(info->layer), "graph") << code;
    }
}

} // namespace
} // namespace beethoven
