/**
 * @file
 * Isolated drives of single simulator layers. Each runs a fixed input
 * outside any SoC (stepping, where it steps, under the event kernel),
 * so its ns/op and allocs/op describe that layer alone and read the
 * same whatever workload the traced run belongs to.
 */

#include <algorithm>
#include <memory>

#include "axi/axi_types.h"
#include "base/log.h"
#include "baselines/raw_memcpy.h"
#include "bench.h"
#include "dram/functional_memory.h"
#include "mem/scratchpad.h"
#include "noc/tree.h"
#include "platform/aws_f1.h"
#include "sim/queue.h"
#include "sim/wake_wheel.h"

namespace perfbench
{

using namespace beethoven;

namespace
{

/** A module that never does anything (wake-wheel targets). */
class InertModule : public Module
{
  public:
    using Module::Module;
    void tick() override {}
};

/** A module that goes to sleep on its first tick and stays asleep. */
class SleeperModule : public Module
{
  public:
    SleeperModule(Simulator &sim, std::string name)
        : Module(sim, std::move(name))
    {
        declareSleepable();
    }
    void tick() override { requestSleep(); }
};

/** Host ns and allocations of one drive body. */
template <typename Body>
DriveResult
measure(u64 ops, u64 own_allocs, Body &&body)
{
    const Counters before = Counters::sample();
    body();
    const Counters d = Counters::sample() - before;
    return {double(d.ns) / double(ops),
            double(d.allocs - std::min(d.allocs, own_allocs)) /
                double(ops)};
}

/**
 * TimedQueue push -> step -> pop. The payloads circulate through a
 * small pool, so the driver itself allocates nothing per op.
 */
template <typename T>
DriveResult
queueDrive(u64 ops, T prototype)
{
    Simulator sim;
    sim.setKernel(SimKernel::Event);
    TimedQueue<T> q(sim, 4, 1);
    std::vector<T> pool(4, prototype);
    return measure(ops, 0, [&] {
        for (u64 i = 0; i < ops; ++i) {
            T &slot = pool[i % pool.size()];
            q.push(std::move(slot));
            sim.step();
            slot = q.pop();
        }
    });
}

/** A POD flit, as the command fabric's beats are. */
struct PodFlit
{
    u64 a = 0;
    u64 b = 0;
    u32 endpoint = 0;
};

/** WakeWheel schedule + drain, mixing near and >1024-cycle wakes. */
DriveResult
wheelDrive(u64 cycles)
{
    Simulator sim;
    std::vector<std::unique_ptr<InertModule>> mods;
    for (unsigned i = 0; i < 64; ++i)
        mods.push_back(std::make_unique<InertModule>(
            sim, "inert" + std::to_string(i)));
    WakeWheel wheel;
    u64 scheduled = 0, delivered = 0;
    const Cycle horizon = cycles + 2048;
    DriveResult res = measure(1, 0, [&] {
        for (Cycle now = 0; now < horizon; ++now) {
            if (now < cycles) {
                for (unsigned k = 0; k < 4; ++k) {
                    wheel.schedule(now, now + 1 + (now * 7 + k * 13) % 64,
                                   mods[(now + k) % mods.size()].get());
                    ++scheduled;
                }
                if (now % 8 == 0) {
                    wheel.schedule(now, now + 1024 + now % 512,
                                   mods[now % mods.size()].get());
                    ++scheduled;
                }
            }
            wheel.drain(now, [&](Module *) { ++delivered; });
        }
    });
    if (delivered != scheduled)
        fatal("wake wheel delivered %llu of %llu wakes",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(scheduled));
    res.nsPerOp /= double(scheduled);
    res.allocsPerOp /= double(scheduled);
    return res;
}

/** Simulator::step with every module asleep. */
DriveResult
emptyStepDrive(u64 steps)
{
    Simulator sim;
    std::vector<std::unique_ptr<SleeperModule>> mods;
    for (unsigned i = 0; i < 256; ++i)
        mods.push_back(std::make_unique<SleeperModule>(
            sim, "sleeper" + std::to_string(i)));
    sim.setKernel(SimKernel::Event);
    sim.step(); // everyone falls asleep
    return measure(steps, 0, [&] { sim.run(steps); });
}

/** Feeds every mux-tree endpoint a flit per cycle, up to a budget. */
class FlitSource : public Module
{
  public:
    FlitSource(Simulator &sim, MuxTree<PodFlit> &tree, unsigned endpoints,
               u64 per_endpoint)
        : Module(sim, "bench.source"), _tree(tree), _endpoints(endpoints),
          _left(endpoints, per_endpoint)
    {}

    void
    tick() override
    {
        for (unsigned e = 0; e < _endpoints; ++e) {
            auto &port = _tree.endpointPort(e);
            if (_left[e] > 0 && port.canPush()) {
                PodFlit f;
                f.endpoint = e;
                port.push(f);
                --_left[e];
            }
        }
    }

  private:
    MuxTree<PodFlit> &_tree;
    unsigned _endpoints;
    std::vector<u64> _left;
};

/** Hands the mux tree's output to the demux tree's root. */
class FlitBridge : public Module
{
  public:
    FlitBridge(Simulator &sim, TimedQueue<PodFlit> &in,
               TimedQueue<PodFlit> &out)
        : Module(sim, "bench.bridge"), _in(in), _out(out)
    {}

    void
    tick() override
    {
        if (_in.canPop() && _out.canPush())
            _out.push(_in.pop());
    }

  private:
    TimedQueue<PodFlit> &_in;
    TimedQueue<PodFlit> &_out;
};

/** Drains every demux-tree endpoint. */
class FlitSink : public Module
{
  public:
    FlitSink(Simulator &sim, DemuxTree<PodFlit> &tree, unsigned endpoints)
        : Module(sim, "bench.sink"), _tree(tree), _endpoints(endpoints)
    {}

    void
    tick() override
    {
        for (unsigned e = 0; e < _endpoints; ++e) {
            auto &port = _tree.endpointPort(e);
            if (port.canPop()) {
                const PodFlit f = port.pop();
                if (f.endpoint != e)
                    fatal("flit for endpoint %u delivered to %u",
                          f.endpoint, e);
                ++received;
            }
        }
    }

    u64 received = 0;

  private:
    DemuxTree<PodFlit> &_tree;
    unsigned _endpoints;
};

/** MuxTree + DemuxTree, F1 NocParams, 16 endpoints on 3 SLRs. */
DriveResult
nocDrive(u64 per_endpoint)
{
    constexpr unsigned kEndpoints = 16;
    const AwsF1Platform f1;
    Simulator sim;
    std::vector<unsigned> slr(kEndpoints);
    for (unsigned e = 0; e < kEndpoints; ++e)
        slr[e] = e % 3;
    TimedQueue<PodFlit> mux_out(sim, 2, 1);
    MuxTree<PodFlit> mux(sim, "bench.mux", slr, f1.memorySlr(),
                         f1.nocParams(), &mux_out);
    DemuxTree<PodFlit> demux(
        sim, "bench.demux", slr, f1.memorySlr(), f1.nocParams(),
        [](const PodFlit &f) { return std::size_t(f.endpoint); });
    FlitSource source(sim, mux, kEndpoints, per_endpoint);
    FlitBridge bridge(sim, mux_out, demux.rootPort());
    FlitSink sink(sim, demux, kEndpoints);
    sim.setKernel(SimKernel::Event);
    const u64 total = per_endpoint * kEndpoints;
    DriveResult res = measure(1, 0, [&] {
        if (!sim.runUntil([&] { return sink.received == total; },
                          total * 64))
            fatal("NoC drive delivered %llu of %llu flits",
                  static_cast<unsigned long long>(sink.received),
                  static_cast<unsigned long long>(total));
    });
    const double hops = mux.flits() + demux.flits();
    res.nsPerOp /= hops;
    res.allocsPerOp /= hops;
    return res;
}

/** Keeps both scratchpad ports busy: port 0 reads, port 1 writes. */
class SpadDriver : public Module
{
  public:
    SpadDriver(Simulator &sim, Scratchpad &spad, u64 requests)
        : Module(sim, "bench.spad_driver"), _spad(spad), _left(requests)
    {}

    void
    tick() override
    {
        const ScratchpadParams &p = _spad.params();
        if (_spad.respPort(0).canPop()) {
            _spad.respPort(0).pop();
            ++responses;
        }
        if (_left == 0)
            return;
        auto &rd = _spad.reqPort(0);
        auto &wr = _spad.reqPort(1);
        if (rd.canPush() && wr.canPush()) {
            SpadRequest r;
            r.row = static_cast<u32>(_left % p.nDatas);
            rd.push(std::move(r));
            SpadRequest w;
            w.row = static_cast<u32>((_left * 7) % p.nDatas);
            w.write = true;
            w.data.assign(p.rowBytes(), static_cast<u8>(_left));
            ++ownAllocs; // the write payload is the driver's own
            wr.push(std::move(w));
            --_left;
        }
    }

    u64 responses = 0;
    u64 ownAllocs = 0;

  private:
    Scratchpad &_spad;
    u64 _left;
};

/** Scratchpad read and write ports. */
DriveResult
spadDrive(u64 requests)
{
    Simulator sim;
    ScratchpadParams p;
    p.dataWidthBits = 64;
    p.nDatas = 1024;
    p.nPorts = 2;
    p.supportsInit = false;
    Scratchpad spad(sim, "bench.spad", p, nullptr);
    SpadDriver driver(sim, spad, requests);
    sim.setKernel(SimKernel::Event);
    const Counters before = Counters::sample();
    if (!sim.runUntil([&] { return driver.responses == requests; },
                      requests * 16))
        fatal("scratchpad drive answered %llu of %llu reads",
              static_cast<unsigned long long>(driver.responses),
              static_cast<unsigned long long>(requests));
    const Counters d = Counters::sample() - before;
    const double accesses = double(spad.accesses());
    return {double(d.ns) / accesses,
            double(d.allocs - std::min(d.allocs, driver.ownAllocs)) /
                accesses};
}

/** A raw-engine copy on a bare DRAM controller; per-beat host cost. */
DriveResult
dramDrive(u64 len, bool distinct_ids)
{
    Simulator sim;
    FunctionalMemory mem;
    DramController::Config cfg;
    cfg.axi = AwsF1Platform().memoryConfig();
    cfg.timing = AwsF1Platform().dramTiming();
    DramController ctrl(sim, "ddr", cfg, mem);
    RawAxiMemcpy::Params params;
    params.burstBeats = 16;
    params.maxInflightReads = 4;
    params.maxInflightWrites = 4;
    params.distinctIds = distinct_ids;
    RawAxiMemcpy engine(sim, "memcpy", params, ctrl);
    sim.setKernel(SimKernel::Event);
    engine.start(0x100000, 0x4000000, len);
    DriveResult res = measure(1, 0, [&] {
        if (!sim.runUntil([&] { return engine.done(); }, 100'000'000ULL))
            fatal("DRAM drive copy did not complete");
    });
    const double beats = double(ctrl.beatsServed());
    res.nsPerOp /= beats;
    res.allocsPerOp /= beats;
    return res;
}

/** Median ns/op of @p reps runs; allocations from the first. */
template <typename Fn>
DriveResult
medianOf(unsigned reps, Fn &&fn)
{
    std::vector<DriveResult> runs;
    for (unsigned i = 0; i < reps; ++i)
        runs.push_back(fn());
    std::vector<double> ns;
    for (const DriveResult &r : runs)
        ns.push_back(r.nsPerOp);
    std::sort(ns.begin(), ns.end());
    return {ns[ns.size() / 2], runs.front().allocsPerOp};
}

} // namespace

std::map<std::string, DriveResult>
runLayerDrives(bool smoke)
{
    const u64 scale = smoke ? 20 : 1;
    const unsigned reps = smoke ? 1 : 3;
    ReadBeat beat;
    beat.data.assign(64, 0xA5);
    SpadResponse spad_resp;
    spad_resp.data.assign(8, 0x5A);

    std::map<std::string, DriveResult> out;
    out["queue.read_beat"] =
        medianOf(reps, [&] { return queueDrive(400'000 / scale, beat); });
    out["queue.spad_response"] = medianOf(
        reps, [&] { return queueDrive(400'000 / scale, spad_resp); });
    out["queue.pod_flit"] = medianOf(
        reps, [&] { return queueDrive(400'000 / scale, PodFlit{}); });
    out["wheel"] =
        medianOf(reps, [&] { return wheelDrive(200'000 / scale); });
    out["step.empty"] =
        medianOf(reps, [&] { return emptyStepDrive(400'000 / scale); });
    out["noc"] = medianOf(reps, [&] { return nocDrive(8'000 / scale); });
    out["spad"] =
        medianOf(reps, [&] { return spadDrive(200'000 / scale); });
    const u64 copy_bytes = smoke ? 1u << 16 : 1u << 20;
    out["dram.single_id"] =
        medianOf(reps, [&] { return dramDrive(copy_bytes, false); });
    out["dram.multi_id"] =
        medianOf(reps, [&] { return dramDrive(copy_bytes, true); });
    return out;
}

} // namespace perfbench
