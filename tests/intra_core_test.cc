/**
 * @file
 * Tests for intra-core memory ports (Appendix A): point-to-point and
 * broadcast delivery across Systems, SLR-crossing latency, and the
 * configuration errors elaboration must catch.
 */

#include <gtest/gtest.h>

#include "core/accelerator_core.h"
#include "core/soc.h"
#include "platform/aws_f1.h"
#include "platform/sim_platform.h"
#include "runtime/fpga_handle.h"

namespace beethoven
{
namespace
{

/** Sender: command(value, row) writes value into the out port. */
class SenderCore : public AcceleratorCore
{
  public:
    explicit SenderCore(const CoreContext &ctx)
        : AcceleratorCore(ctx), _out(getIntraCoreMemOut("link"))
    {}

    void
    tick() override
    {
        if (_pending) {
            if (_out.canPush()) {
                SpadRequest w;
                w.row = static_cast<u32>(_cmd.args[1]);
                w.write = true;
                w.data.resize(4);
                for (unsigned b = 0; b < 4; ++b)
                    w.data[b] =
                        static_cast<u8>(_cmd.args[0] >> (8 * b));
                _out.push(std::move(w));
                _pending = false;
                _respond = true;
            }
            return;
        }
        if (_respond) {
            if (respond(_cmd))
                _respond = false;
            return;
        }
        if (auto cmd = pollCommand()) {
            _cmd = *cmd;
            _pending = true;
        }
    }

  private:
    TimedQueue<SpadRequest> &_out;
    DecodedCommand _cmd;
    bool _pending = false;
    bool _respond = false;
};

/** Rows the streaming sender writes: the receiver's whole inbox. */
constexpr u32 kRows = 256;

/** Streams rows 0..n-1 into the out port, one each cycle it can. */
class StreamingSenderCore : public AcceleratorCore
{
  public:
    StreamingSenderCore(const CoreContext &ctx, u32 rows)
        : AcceleratorCore(ctx), _out(getIntraCoreMemOut("link")),
          _rows(rows)
    {}

    void
    tick() override
    {
        if (_next < _rows && _out.canPush()) {
            SpadRequest w;
            w.row = _next++;
            w.write = true;
            w.data.assign(4, 0xA5);
            _out.push(std::move(w));
        }
    }

  private:
    TimedQueue<SpadRequest> &_out;
    u32 _rows;
    u32 _next = 0;
};

/** Receiver: command(row) responds with inbox[row]. */
class ReceiverCore : public AcceleratorCore
{
  public:
    explicit ReceiverCore(const CoreContext &ctx)
        : AcceleratorCore(ctx), _inbox(getScratchpad("inbox"))
    {}

    const Scratchpad &inbox() const { return _inbox; }

    void
    tick() override
    {
        if (_respond) {
            if (respond(_cmd, _inbox.peekUint(
                                  static_cast<u32>(_cmd.args[0]))))
                _respond = false;
            return;
        }
        if (auto cmd = pollCommand()) {
            _cmd = *cmd;
            _respond = true;
        }
    }

  private:
    Scratchpad &_inbox;
    DecodedCommand _cmd;
    bool _respond = false;
};

AcceleratorConfig
linkedConfig(unsigned senders, unsigned receivers,
             CommunicationDegree degree)
{
    AcceleratorSystemConfig tx;
    tx.name = "Tx";
    tx.nCores = senders;
    tx.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<SenderCore>(ctx);
    };
    tx.intraMemoryOuts.push_back({"link", "Rx", "inbox", 1});
    tx.commands.push_back(CommandSpec(
        "send",
        {CommandField::uint("value", 32), CommandField::uint("row", 16)}));

    AcceleratorSystemConfig rx;
    rx.name = "Rx";
    rx.nCores = receivers;
    rx.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<ReceiverCore>(ctx);
    };
    IntraCoreMemoryPortInConfig inbox;
    inbox.name = "inbox";
    inbox.dataWidthBits = 32;
    inbox.nDatas = 256;
    inbox.commDeg = degree;
    rx.intraMemoryIns.push_back(inbox);
    rx.commands.push_back(
        CommandSpec("peek", {CommandField::uint("row", 16)}, 32));

    AcceleratorConfig cfg;
    cfg.name = "Linked";
    cfg.systems.push_back(std::move(tx));
    cfg.systems.push_back(std::move(rx));
    return cfg;
}

TEST(IntraCore, PointToPointDeliversToMatchingCore)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(
        linkedConfig(2, 2, CommunicationDegree::PointToPoint),
        platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    handle.invoke("Tx", "send", 0, {0x1111, 5}).get();
    handle.invoke("Tx", "send", 1, {0x2222, 5}).get();
    soc.sim().run(50); // let the bridges drain

    EXPECT_EQ(handle.invoke("Rx", "peek", 0, {5}).get(), 0x1111u);
    EXPECT_EQ(handle.invoke("Rx", "peek", 1, {5}).get(), 0x2222u);
}

TEST(IntraCore, BroadcastReachesAllCores)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(
        linkedConfig(1, 3, CommunicationDegree::Broadcast), platform);
    RuntimeServer server(soc);
    fpga_handle_t handle(server);

    handle.invoke("Tx", "send", 0, {0xABCD, 9}).get();
    soc.sim().run(50);
    for (unsigned c = 0; c < 3; ++c)
        EXPECT_EQ(handle.invoke("Rx", "peek", c, {9}).get(), 0xABCDu)
            << "receiver " << c;
}

TEST(IntraCore, PointToPointCountMismatchIsFatal)
{
    SimulationPlatform platform;
    EXPECT_THROW(
        AcceleratorSoc(
            linkedConfig(2, 3, CommunicationDegree::PointToPoint),
            platform),
        ConfigError);
}

TEST(IntraCore, CrossSlrPortMovesOneRowPerCycle)
{
    // The bridge's queue carries the SLR-crossing latency, so it must
    // be deep enough to keep a row per cycle in flight across it.
    AwsF1Platform platform;
    AcceleratorConfig cfg =
        linkedConfig(1, 1, CommunicationDegree::PointToPoint);
    AcceleratorSystemConfig &tx = cfg.systems[0];
    tx.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<StreamingSenderCore>(ctx, kRows);
    };
    // Sender logic this large leaves the receiver a different SLR.
    tx.kernelResources.lut = 250e3;
    tx.kernelResources.clb = 30e3;
    AcceleratorSoc soc(std::move(cfg), platform);
    ASSERT_NE(soc.coreSlrs("Tx")[0], soc.coreSlrs("Rx")[0]);

    const Scratchpad &inbox =
        dynamic_cast<ReceiverCore &>(soc.core("Rx", 0)).inbox();
    const Cycle start = soc.sim().cycle();
    while (inbox.accesses() < kRows &&
           soc.sim().cycle() - start < 4 * kRows)
        soc.sim().step();
    EXPECT_EQ(inbox.accesses(), kRows);
    EXPECT_LE(soc.sim().cycle() - start,
              kRows + 4 * platform.nocParams().slrCrossingLatency);
    EXPECT_EQ(inbox.peekUint(kRows - 1), 0xA5A5A5A5u);
}

TEST(IntraCore, InboxMemoryIsAccountedInMappings)
{
    SimulationPlatform platform;
    AcceleratorSoc soc(
        linkedConfig(2, 2, CommunicationDegree::PointToPoint),
        platform);
    unsigned inboxes = 0;
    for (const auto &rec : soc.memoryMappings()) {
        if (rec.owner == "inbox")
            ++inboxes;
    }
    EXPECT_EQ(inboxes, 2u) << "one inbox memory per receiver core";
}

} // namespace
} // namespace beethoven
