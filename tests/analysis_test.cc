/**
 * @file
 * Unit tests for the simulation-graph static analyzer (src/analysis/):
 * one positive and one negative case per graph rule, wired on a bare
 * Simulator through the TimedQueue and Module declarations elaboration
 * itself uses; the census of a real elaborated SoC; the constructor
 * gate rejecting a planted lost wake before a single cycle runs; and
 * the static/dynamic pairing with the differential fuzz harness.
 */

#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "base/log.h"
#include "core/soc.h"
#include "lint/lint.h"
#include "sim/graph_record.h"
#include "sim/queue.h"
#include "verify/fuzz.h"
#include "verify/random_soc.h"
#include "verify/traffic.h"

namespace beethoven
{
namespace
{

using verify::FuzzCase;
using verify::FuzzKind;
using verify::FuzzSystem;

/** A module that only declares its wake posture; nothing ticks it. */
class Stub : public Module
{
  public:
    Stub(Simulator &sim, std::string name, bool sleepable = false,
         bool self_wake = false)
        : Module(sim, std::move(name))
    {
        if (sleepable)
            declareSleepable();
        if (self_wake)
            declareSelfWake();
    }
    void tick() override {}
};

/** The rules' verdict on everything registered with @p sim. */
lint::DiagnosticReport
analyze(const Simulator &sim)
{
    return analysis::analyzeGraph(sim.graphRecord());
}

// --- BTH100: sleepable consumer without an armed push-wake ----------

TEST(GraphRules, Bth100FiresOnSleepableConsumerWithoutPushWake)
{
    Simulator sim;
    Stub prod(sim, "prod"), cons(sim, "cons", /*sleepable=*/true);
    TimedQueue<int> q(sim, 4);
    q.declareProducer(&prod);
    q.declareConsumer(&cons);
    // A pop-wake keeps 'cons' reachable, so only BTH100 (not BTH102)
    // is under test.
    TimedQueue<int> back(sim, 4);
    back.setWakeOnPop(&cons);
    const auto rep = analyze(sim);
    ASSERT_EQ(rep.codes(), std::vector<std::string>{"BTH100"})
        << rep.format();
    // The diagnostic names the queue's construction site.
    EXPECT_NE(rep.diagnostics()[0].message.find("tests/analysis_test.cc:"),
              std::string::npos)
        << rep.format();
}

TEST(GraphRules, Bth100SilentWhenPushWakeArmedOrConsumerPolls)
{
    Simulator sim;
    Stub prod(sim, "prod"), sleeper(sim, "sleeper", /*sleepable=*/true),
        poller(sim, "poller");
    TimedQueue<int> armed(sim, 4), polled(sim, 4);
    armed.declareProducer(&prod);
    armed.setWakeOnPush(&sleeper);
    // A poll-driven (never-sleeping) consumer needs no push-wake.
    polled.declareProducer(&prod);
    polled.declareConsumer(&poller);
    EXPECT_FALSE(analyze(sim).has("BTH100"));
}

// --- BTH101: push-wake armed at a module that is not the consumer --

TEST(GraphRules, Bth101FiresOnMisdirectedPushWake)
{
    Simulator sim;
    Stub other(sim, "other"), cons(sim, "cons");
    TimedQueue<int> q(sim, 4);
    q.declareConsumer(&cons);
    q.setWakeOnPush(&other); // armed at a bystander, not 'cons'
    EXPECT_TRUE(analyze(sim).has("BTH101"));
}

TEST(GraphRules, Bth101SilentWhenWakeTargetsTheConsumer)
{
    Simulator sim;
    Stub prod(sim, "prod"), cons(sim, "cons");
    TimedQueue<int> q(sim, 4);
    q.declareProducer(&prod);
    q.setWakeOnPush(&cons);
    EXPECT_FALSE(analyze(sim).has("BTH101"));
}

// --- BTH102: sleepable module with no reachable wake source --------

TEST(GraphRules, Bth102FiresOnUnwakeableSleeper)
{
    Simulator sim;
    Stub stuck(sim, "stuck", /*sleepable=*/true);
    const auto rep = analyze(sim);
    EXPECT_TRUE(rep.has("BTH102"));
    EXPECT_TRUE(rep.hasErrors());
}

TEST(GraphRules, Bth102SilentWithPushWakePopWakeOrSelfWake)
{
    Simulator sim;
    Stub prod(sim, "prod", /*sleepable=*/true),
        cons(sim, "cons", /*sleepable=*/true),
        // e.g. the DRAM refresh timer
        timer(sim, "timer", /*sleepable=*/true, /*self_wake=*/true);
    TimedQueue<int> q(sim, 4);
    q.setWakeOnPop(&prod);
    q.setWakeOnPush(&cons);
    EXPECT_FALSE(analyze(sim).has("BTH102"));
}

// --- BTH103: self-wake declared without a sleep site ---------------

TEST(GraphRules, Bth103FiresOnSelfWakeWithoutSleep)
{
    Simulator sim;
    Stub dead_arm(sim, "dead-arm", /*sleepable=*/false,
                  /*self_wake=*/true);
    EXPECT_TRUE(analyze(sim).has("BTH103"));
}

TEST(GraphRules, Bth103SilentWhenPaired)
{
    Simulator sim;
    Stub timer(sim, "timer", /*sleepable=*/true, /*self_wake=*/true);
    EXPECT_FALSE(analyze(sim).has("BTH103"));
}

// --- BTH105: producer is its own push-wake target ------------------

TEST(GraphRules, Bth105FiresOnSelfWakeLoop)
{
    Simulator sim;
    Stub prod(sim, "prod"), cons(sim, "cons");
    TimedQueue<int> q(sim, 4);
    q.declareProducer(&prod);
    q.declareConsumer(&cons);
    q.setWakeOnPush(&prod); // producer wakes itself on push
    EXPECT_TRUE(analyze(sim).has("BTH105"));
}

TEST(GraphRules, Bth105SilentOnNormalWiring)
{
    Simulator sim;
    Stub prod(sim, "prod"), cons(sim, "cons");
    TimedQueue<int> q(sim, 4);
    q.declareProducer(&prod);
    q.setWakeOnPush(&cons);
    EXPECT_FALSE(analyze(sim).has("BTH105"));
}

TEST(GraphRules, EveryAnalyzerCodeIsRegisteredWithStableLayer)
{
    for (const char *code :
         {"BTH100", "BTH101", "BTH102", "BTH103", "BTH105", "BTH106"}) {
        const auto *info = lint::findDiagnosticCode(code);
        ASSERT_NE(info, nullptr) << code;
        EXPECT_EQ(std::string(info->layer), "graph") << code;
    }
    // Retired codes stay unassigned so old reports keep their meaning.
    for (const char *code :
         {"BTH104", "BTH110", "BTH111", "BTH112", "BTH113"})
        EXPECT_EQ(lint::findDiagnosticCode(code), nullptr) << code;
}

// --- Real-SoC census and the planted-wake catch -------------------

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
    EXPECT_TRUE(analysis::analyzeGraph(soc.sim().graphRecord(), &model)
                    .has("BTH106"));
}

TEST(SocAnalysis, PlantedMissingPushWakeIsCaughtStatically)
{
    // The bug --plant-lost-wake=N plants dynamically (a wake that
    // never arrives) is planted here at its root cause, an unarmed
    // push-wake, and the graph rules must flag it from the elaboration
    // record alone: the report the constructor throws carries BTH100
    // as an error, and no SoC exists to run a cycle on.
    plantMissingPushWake(1);
    const verify::FuzzPlatform platform(memcpyCase().platform);
    try {
        const AcceleratorSoc soc(
            verify::buildAcceleratorConfig(memcpyCase()), platform);
        ADD_FAILURE() << "the planted graph elaborated";
    } catch (const lint::DiagnosticError &e) {
        EXPECT_TRUE(e.report().has("BTH100")) << e.report().format();
        EXPECT_TRUE(e.report().hasErrors());
    }
    plantMissingPushWake(0);
}

TEST(SocAnalysis, PlantedMissingPushWakeFailsElaboration)
{
    // The constructor is the only gate: it rejects the planted graph
    // as a plain ConfigError, so every existing handler still catches
    // it, and the message names the code.
    plantMissingPushWake(1);
    const verify::FuzzPlatform platform(memcpyCase().platform);
    try {
        const AcceleratorSoc soc(
            verify::buildAcceleratorConfig(memcpyCase()), platform);
        ADD_FAILURE() << "the planted graph elaborated";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("BTH100"), std::string::npos)
            << e.what();
    }
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
    const verify::FuzzResult static_catch =
        verify::runFuzzCase(c, verify::FuzzOptions{});
    EXPECT_EQ(static_catch.kind, verify::FailKind::BuildError);
    EXPECT_NE(static_catch.message.find("BTH100"), std::string::npos)
        << static_catch.message;
}

} // namespace
} // namespace beethoven
