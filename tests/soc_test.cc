/**
 * @file
 * Tests for SoC elaboration: configuration validation (failure
 * injection), placement/mapping records, accessors, AXI ID budgeting,
 * and fit enforcement.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/vecadd.h"
#include "base/json.h"
#include "platform/aws_f1.h"
#include "platform/kria.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"
#include "trace/trace.h"

namespace beethoven
{
namespace
{

AcceleratorSystemConfig
minimalSystem(const std::string &name = "Sys")
{
    auto sys = VecAddCore::systemConfig(1);
    sys.name = name;
    return sys;
}

TEST(SocValidation, RejectsEmptyConfig)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg;
    EXPECT_THROW(AcceleratorSoc(cfg, platform), ConfigError);
}

TEST(SocValidation, RejectsDuplicateSystemNames)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg;
    cfg.systems.push_back(minimalSystem("Same"));
    cfg.systems.push_back(minimalSystem("Same"));
    EXPECT_THROW(AcceleratorSoc(std::move(cfg), platform), ConfigError);
}

TEST(SocValidation, RejectsZeroCores)
{
    SimulationPlatform platform;
    auto sys = minimalSystem();
    sys.nCores = 0;
    EXPECT_THROW(AcceleratorSoc(AcceleratorConfig(sys), platform),
                 ConfigError);
}

TEST(SocValidation, RejectsMissingConstructor)
{
    SimulationPlatform platform;
    auto sys = minimalSystem();
    sys.moduleConstructor = nullptr;
    EXPECT_THROW(AcceleratorSoc(AcceleratorConfig(sys), platform),
                 ConfigError);
}

TEST(SocValidation, RejectsDuplicateChannelNames)
{
    SimulationPlatform platform;
    auto sys = minimalSystem();
    sys.readChannels.push_back(sys.readChannels[0]);
    EXPECT_THROW(AcceleratorSoc(AcceleratorConfig(sys), platform),
                 ConfigError);
}

TEST(SocValidation, RejectsDanglingIntraCoreTarget)
{
    SimulationPlatform platform;
    auto sys = minimalSystem();
    sys.intraMemoryOuts.push_back({"out", "NoSuchSystem", "inbox", 1});
    EXPECT_THROW(AcceleratorSoc(AcceleratorConfig(sys), platform),
                 ConfigError);
}

TEST(SocValidation, RejectsMissingIntraCorePort)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg;
    auto a = minimalSystem("A");
    a.intraMemoryOuts.push_back({"out", "B", "missing_port", 1});
    cfg.systems.push_back(a);
    cfg.systems.push_back(minimalSystem("B"));
    EXPECT_THROW(AcceleratorSoc(std::move(cfg), platform), ConfigError);
}

TEST(SocValidation, RejectsAxiIdExhaustion)
{
    // Kria has 6 ID bits = 64 IDs; each vecadd core's TLP reader
    // claims 4 read IDs, so 17 cores demand 68 > 64 and must be
    // rejected with an actionable error.
    KriaPlatform platform;
    auto sixteen = minimalSystem();
    sixteen.nCores = 16;
    EXPECT_NO_THROW(
        AcceleratorSoc(AcceleratorConfig(sixteen), platform));
    auto seventeen = minimalSystem();
    seventeen.nCores = 17;
    try {
        AcceleratorSoc soc(AcceleratorConfig(seventeen), platform);
        FAIL() << "expected AXI ID exhaustion";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("AXI IDs"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SocValidation, RejectsDesignsTooBigForDevice)
{
    AwsF1Platform platform;
    auto sys = minimalSystem();
    sys.kernelResources.lut = 5e6; // bigger than the whole device
    EXPECT_THROW(AcceleratorSoc(AcceleratorConfig(sys), platform),
                 ConfigError);
}

TEST(Soc, AccessorsAndIds)
{
    SimulationPlatform platform;
    AcceleratorConfig cfg;
    auto a = minimalSystem("First");
    a.nCores = 2;
    cfg.systems.push_back(a);
    cfg.systems.push_back(minimalSystem("Second"));
    AcceleratorSoc soc(std::move(cfg), platform);

    EXPECT_EQ(soc.systemIdOf("First"), 0u);
    EXPECT_EQ(soc.systemIdOf("Second"), 1u);
    EXPECT_THROW(soc.systemIdOf("Nope"), ConfigError);
    EXPECT_EQ(soc.numCores(), 3u);
    EXPECT_EQ(soc.core("First", 1).coreIdx(), 1u);
    EXPECT_EQ(soc.core("Second", 0).systemId(), 1u);
    EXPECT_EQ(soc.coreSlrs("First").size(), 2u);
}

TEST(Soc, RecordsMemoryMappingsForEveryBuffer)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(minimalSystem()), platform);
    // vecadd: one reader buffer + one writer stage.
    unsigned readers = 0, writers = 0;
    for (const auto &rec : soc.memoryMappings()) {
        if (rec.role == "reader-buffer")
            ++readers;
        if (rec.role == "writer-stage")
            ++writers;
        EXPECT_GT(rec.mapping.totalCells(), 0u);
    }
    EXPECT_EQ(readers, 1u);
    EXPECT_EQ(writers, 1u);
}

TEST(Soc, InterconnectResourcesAreAccounted)
{
    AwsF1Platform platform;
    auto sys = minimalSystem();
    sys.nCores = 8;
    AcceleratorSoc soc(AcceleratorConfig(sys), platform);
    EXPECT_GT(soc.interconnectResources().lut, 0.0);
    EXPECT_DOUBLE_EQ(soc.interconnectResources().bram, 0.0)
        << "Table II: the interconnect uses no memory blocks";
}

TEST(Soc, MultiSystemCoresSpanSlrs)
{
    AwsF1Platform platform;
    auto sys = minimalSystem();
    sys.nCores = 12;
    sys.kernelResources.lut = 60000;
    sys.kernelResources.clb = 9000;
    AcceleratorSoc soc(AcceleratorConfig(sys), platform);
    const auto slrs = soc.coreSlrs("Sys");
    const std::set<unsigned> used(slrs.begin(), slrs.end());
    EXPECT_GT(used.size(), 1u) << "large designs must span SLRs";
}

TEST(Soc, PureComputeAcceleratorHasNoMemoryFabric)
{
    // A system with no channels or scratchpads elaborates and runs.
    SimulationPlatform platform;
    AcceleratorSystemConfig sys;
    sys.name = "Compute";
    sys.nCores = 1;
    struct EchoCore : AcceleratorCore
    {
        explicit EchoCore(const CoreContext &ctx)
            : AcceleratorCore(ctx)
        {}
        void
        tick() override
        {
            if (auto cmd = pollCommand())
                _pending.push_back(*cmd);
            if (!_pending.empty() &&
                respond(_pending.front(),
                        _pending.front().args[0] * 2)) {
                _pending.erase(_pending.begin());
            }
        }
        std::vector<DecodedCommand> _pending;
    };
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<EchoCore>(ctx);
    };
    sys.commands.push_back(CommandSpec(
        "double_it", {CommandField::uint("x", 32)}, 64));
    AcceleratorSoc soc(AcceleratorConfig(sys), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);
    EXPECT_EQ(handle.invoke("Compute", "double_it", 0, {21}).get(),
              42u);
}

/** store(row, value) writes value into lut; load(row) answers with it. */
class LutCore : public AcceleratorCore
{
  public:
    explicit LutCore(const CoreContext &ctx)
        : AcceleratorCore(ctx), _lut(getScratchpad("lut"))
    {}

    void
    tick() override
    {
        if (_respond) {
            if (respond(_cmd, _value))
                _respond = false;
            return;
        }
        if (_loading) {
            if (_lut.respPort(0).canPop()) {
                const SpadResponse r = _lut.respPort(0).pop();
                _value = 0;
                for (unsigned b = 0; b < 4; ++b)
                    _value |= u64(r.data[b]) << (8 * b);
                _loading = false;
                _respond = true;
            }
            return;
        }
        if (!_lut.reqPort(0).canPush())
            return;
        if (auto cmd = pollCommand()) {
            _cmd = *cmd;
            SpadRequest req;
            req.row = static_cast<u32>(_cmd.args[0]);
            req.write = _cmd.commandId == 0;
            if (req.write) {
                req.data.assign(_lut.params().rowBytes(), 0);
                for (unsigned b = 0; b < 4; ++b)
                    req.data[b] = static_cast<u8>(_cmd.args[1] >> (8 * b));
                _value = 0;
                _respond = true;
            } else {
                _loading = true;
            }
            _lut.reqPort(0).push(std::move(req));
        }
    }

  private:
    Scratchpad &_lut;
    DecodedCommand _cmd;
    u64 _value = 0;
    bool _loading = false;
    bool _respond = false;
};

TEST(Soc, ScratchpadOnlySystemBuildsItsMemory)
{
    // No read or write channel, so no AXI endpoint at all: the system's
    // only memory is Appendix A's manually-managed Memory(...).
    SimulationPlatform platform;
    AcceleratorSystemConfig sys;
    sys.name = "Lut";
    sys.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<LutCore>(ctx);
    };
    sys.scratchpads.push_back(Memory("lut", 2, 36, 4096, 1, 1));
    sys.commands.push_back(CommandSpec(
        "store",
        {CommandField::uint("row", 16), CommandField::uint("value", 32)}));
    sys.commands.push_back(
        CommandSpec("load", {CommandField::uint("row", 16)}, 32));
    AcceleratorSoc soc(AcceleratorConfig(sys), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    handle.invoke("Lut", "store", 0, {4000, 0xC0FFEE}).get();
    EXPECT_EQ(handle.invoke("Lut", "load", 0, {4000}).get(), 0xC0FFEEu);
}

TEST(Soc, TraceRecordsEndToEndCommandSpan)
{
    // Dispatch one vecadd command with a sink attached and check the
    // recorded cmd span against the wall-clock cycle delta observed
    // through the Simulator itself.
    SimulationPlatform platform;
    AcceleratorSoc soc(AcceleratorConfig(minimalSystem()), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    remote_ptr mem = handle.malloc(1024);
    for (u64 i = 0; i < 1024; ++i)
        mem.getHostAddr()[i] = static_cast<u8>(i);
    handle.copy_to_fpga(mem);

    TraceSink sink;
    soc.sim().attachTrace(&sink);
    const Cycle before = soc.sim().cycle();
    handle.invoke("Sys", "my_accel", 0, {1, mem.getFpgaAddr(), 256})
        .get();
    const Cycle after = soc.sim().cycle();
    soc.sim().attachTrace(nullptr);
    ASSERT_GT(after, before);
    ASSERT_TRUE(sink.hasCategory("cmd"));

    std::ostringstream os;
    sink.writeChromeTrace(os);
    const JsonValue root = parseJson(os.str());
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // The MMIO-level dispatch->completion span must lie inside the
    // invoke's cycle window and cover most of it: the handle returns
    // only after the response crosses back over MMIO.
    const JsonValue *cmd_span = nullptr;
    for (const JsonValue &e : events->array) {
        const JsonValue *cat = e.find("cat");
        const JsonValue *ph = e.find("ph");
        if (cat != nullptr && cat->string == "cmd" && ph != nullptr &&
            ph->string == "X" && e.find("name")->string == "cmd")
            cmd_span = &e;
    }
    ASSERT_NE(cmd_span, nullptr);
    const double ts = cmd_span->find("ts")->number;
    const double dur = cmd_span->find("dur")->number;
    EXPECT_GT(dur, 0.0);
    EXPECT_GE(ts, double(before));
    EXPECT_LE(ts + dur, double(after));
    EXPECT_GT(dur, 0.5 * double(after - before));

    // The same run also produced core-exec and memory-stream spans.
    EXPECT_TRUE(sink.hasCategory("mem"));
}

} // namespace
} // namespace beethoven
