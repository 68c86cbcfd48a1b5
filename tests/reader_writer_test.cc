/**
 * @file
 * Tests for the Reader/Writer streaming primitives against a live DRAM
 * controller: data correctness under TLP reordering, width conversion,
 * sub-bus-beat strobes, command sequencing, and parameter sweeps.
 */

#include <gtest/gtest.h>

#include "base/bits.h"
#include "base/rng.h"
#include "dram/controller.h"
#include "mem/reader.h"
#include "mem/writer.h"

namespace beethoven
{
namespace
{

struct StreamHarness
{
    Simulator sim;
    FunctionalMemory mem;
    DramController ctrl;
    std::unique_ptr<Reader> reader;
    std::unique_ptr<Writer> writer;

    explicit StreamHarness(const ReaderParams &rp,
                           const WriterParams &wp)
        : ctrl(sim, "ddr", makeConfig(), mem)
    {
        reader = std::make_unique<Reader>(sim, "reader", rp,
                                          ctrl.config().axi, 0,
                                          &ctrl.arPort(),
                                          &ctrl.rPort());
        writer = std::make_unique<Writer>(sim, "writer", wp,
                                          ctrl.config().axi, 0,
                                          &ctrl.wPort(),
                                          &ctrl.bPort());
    }

    static DramController::Config
    makeConfig()
    {
        DramController::Config cfg;
        cfg.axi.dataBytes = 64;
        return cfg;
    }

    std::vector<u8>
    readStream(Addr addr, u64 len)
    {
        reader->cmdPort().push({addr, len});
        std::vector<u8> out;
        const Cycle start = sim.cycle();
        while (out.size() < len) {
            if (reader->dataPort().canPop()) {
                const StreamWord w = reader->dataPort().pop();
                out.insert(out.end(), w.data.begin(), w.data.end());
            } else {
                sim.step();
                if (sim.cycle() - start > 1000000u) {
                    ADD_FAILURE() << "read stream hung";
                    return out;
                }
            }
        }
        return out;
    }

    void
    writeStream(Addr addr, const std::vector<u8> &bytes,
                unsigned port_bytes)
    {
        writer->cmdPort().push({addr, bytes.size()});
        std::size_t sent = 0;
        const Cycle start = sim.cycle();
        while (!writer->donePort().canPop()) {
            if (sent < bytes.size() &&
                writer->dataPort().canPush()) {
                StreamWord w;
                w.data.assign(bytes.begin() + sent,
                              bytes.begin() + sent + port_bytes);
                writer->dataPort().push(std::move(w));
                sent += port_bytes;
            }
            sim.step();
            if (sim.cycle() - start > 1000000u) {
                ADD_FAILURE() << "write stream hung";
                return;
            }
        }
        writer->donePort().pop();
    }
};

std::vector<u8>
pattern(u64 len, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> v(len);
    for (auto &b : v)
        b = static_cast<u8>(rng.next());
    return v;
}

/** Parameter sweep: (portBytes, burstBeats, maxInflight, useTlp). */
using StreamParam = std::tuple<unsigned, unsigned, unsigned, bool>;

class ReaderSweep : public ::testing::TestWithParam<StreamParam>
{};

TEST_P(ReaderSweep, StreamsExactBytes)
{
    const auto [port, burst, inflight, tlp] = GetParam();
    ReaderParams rp;
    rp.dataBytes = port;
    rp.burstBeats = burst;
    rp.maxInflight = inflight;
    rp.useTlp = tlp;
    StreamHarness h(rp, WriterParams{});

    const u64 len = 3 * port * 37; // odd multiple of the port width
    const auto data = pattern(len, port * 131 + burst);
    // The stream start must be port-aligned (non-power-of-two ports
    // like 24 B need an explicit multiple).
    const Addr base = roundUp(0x40000, port);
    h.mem.write(base, len, data.data());
    EXPECT_EQ(h.readStream(base, len), data);
}

INSTANTIATE_TEST_SUITE_P(
    Params, ReaderSweep,
    ::testing::Values(StreamParam{4, 16, 4, true},
                      StreamParam{4, 64, 1, false},
                      StreamParam{8, 16, 8, true},
                      StreamParam{64, 64, 4, true},
                      StreamParam{64, 16, 2, false},
                      StreamParam{32, 8, 4, true},
                      StreamParam{1, 16, 4, true},
                      StreamParam{24, 16, 4, true}));

class WriterSweep : public ::testing::TestWithParam<StreamParam>
{};

TEST_P(WriterSweep, LandsExactBytes)
{
    const auto [port, burst, inflight, tlp] = GetParam();
    WriterParams wp;
    wp.dataBytes = port;
    wp.burstBeats = burst;
    wp.maxInflight = inflight;
    wp.useTlp = tlp;
    StreamHarness h(ReaderParams{}, wp);

    const u64 len = u64(port) * 53;
    const auto data = pattern(len, port * 7 + burst);
    const Addr base = roundUp(0x80000, port);
    // Sentinels around the landing zone.
    const auto before = pattern(64, 1), after = pattern(64, 2);
    h.mem.write(base - 64, 64, before.data());
    h.mem.write(base + len, 64, after.data());

    h.writeStream(base, data, port);
    std::vector<u8> out(len), b2(64), a2(64);
    h.mem.read(base, len, out.data());
    h.mem.read(base - 64, 64, b2.data());
    h.mem.read(base + len, 64, a2.data());
    EXPECT_EQ(out, data);
    EXPECT_EQ(b2, before) << "writer clobbered preceding bytes";
    EXPECT_EQ(a2, after) << "writer clobbered following bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Params, WriterSweep,
    ::testing::Values(StreamParam{4, 16, 4, true},
                      StreamParam{4, 64, 1, false},
                      StreamParam{8, 32, 2, true},
                      StreamParam{64, 64, 4, true},
                      StreamParam{32, 16, 4, false},
                      StreamParam{1, 16, 4, true},
                      StreamParam{24, 16, 4, true}));

TEST(Reader, SequentialCommandsDoNotBleed)
{
    StreamHarness h(ReaderParams{}, WriterParams{});
    const auto a = pattern(256, 10), b = pattern(256, 20);
    h.mem.write(0x1000, 256, a.data());
    h.mem.write(0x9000, 256, b.data());
    EXPECT_EQ(h.readStream(0x1000, 256), a);
    EXPECT_EQ(h.readStream(0x9000, 256), b);
}

TEST(Reader, UnalignedStartWithinBusBeat)
{
    // Port-aligned but not bus-beat-aligned: the reader must discard
    // the beat prefix.
    ReaderParams rp;
    rp.dataBytes = 4;
    StreamHarness h(rp, WriterParams{});
    const auto data = pattern(512, 33);
    h.mem.write(0x7000, 512, data.data());
    const auto out = h.readStream(0x7000 + 12, 100);
    EXPECT_EQ(out, std::vector<u8>(data.begin() + 12,
                                   data.begin() + 112));
}

TEST(Writer, UnalignedStartUsesStrobes)
{
    WriterParams wp;
    wp.dataBytes = 4;
    StreamHarness h(ReaderParams{}, wp);
    const auto original = pattern(128, 44);
    h.mem.write(0x3000, 128, original.data());
    const auto data = pattern(40, 55);
    h.writeStream(0x3000 + 20, data, 4);
    std::vector<u8> out(128);
    h.mem.read(0x3000, 128, out.data());
    for (unsigned i = 0; i < 128; ++i) {
        const u8 expected = (i >= 20 && i < 60) ? data[i - 20]
                                                : original[i];
        ASSERT_EQ(out[i], expected) << "byte " << i;
    }
}

TEST(Reader, MisalignedCommandIsFatal)
{
    ReaderParams rp;
    rp.dataBytes = 8;
    StreamHarness h(rp, WriterParams{});
    h.reader->cmdPort().push({3, 64}); // addr % 8 != 0
    EXPECT_THROW(h.sim.run(4), ConfigError);
}

TEST(Writer, MisalignedLengthIsFatal)
{
    WriterParams wp;
    wp.dataBytes = 8;
    StreamHarness h(ReaderParams{}, wp);
    h.writer->cmdPort().push({0, 12}); // len % 8 != 0
    EXPECT_THROW(h.sim.run(4), ConfigError);
}

TEST(Writer, ZeroLengthCompletesWithDoneToken)
{
    StreamHarness h(ReaderParams{}, WriterParams{});
    h.writer->cmdPort().push({0x5000, 0});
    const bool done = h.sim.runUntil(
        [&] { return h.writer->donePort().canPop(); }, 1000);
    EXPECT_TRUE(done);
}

TEST(Reader, IdleReflectsActivity)
{
    StreamHarness h(ReaderParams{}, WriterParams{});
    EXPECT_TRUE(h.reader->idle());
    h.mem.writeValue<u64>(0x100, 1);
    h.reader->cmdPort().push({0x100, 64});
    h.sim.step();
    EXPECT_FALSE(h.reader->idle());
}

TEST(Reader, TlpUsesDistinctIdsNoTlpUsesOne)
{
    Simulator sim;
    TimedQueue<ReadRequest> ar(sim, 2);
    TimedQueue<ReadBeat> r(sim, 2);
    ReaderParams tlp;
    tlp.useTlp = true;
    tlp.maxInflight = 4;
    Reader with_tlp(sim, "tlp", tlp, AxiConfig{}, 0, &ar, &r);
    EXPECT_EQ(with_tlp.params().numIds(), 4u);
    ReaderParams no_tlp = tlp;
    no_tlp.useTlp = false;
    Reader without(sim, "no_tlp", no_tlp, AxiConfig{}, 8, &ar, &r);
    EXPECT_EQ(without.params().numIds(), 1u);
}

} // namespace
} // namespace beethoven
