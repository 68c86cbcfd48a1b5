/**
 * @file
 * The three benchmark workloads, one round each:
 *
 *  - machsuite:     the Fig. 6 --quick composition (five MachSuite
 *                   kernels on F1 at 125 MHz, min(fit, 4) cores);
 *  - memcpy_stream: Fig. 4 at full sizes (three Beethoven memcpy
 *                   variants through SoC and runtime, two raw AXI
 *                   engines on a bare DRAM controller);
 *  - fuzz:          seeded random SoCs run by verify::runFuzzCase.
 *
 * Each round separates set-up (elaboration, runtime construction,
 * operand generation, DMA-in) from the measured phase (commands and
 * their responses) and from the checks that follow (golden compares,
 * final invariant checks, the stats-tree fingerprint).
 */

#include <cstring>
#include <functional>
#include <memory>
#include <sstream>

#include "accel/machsuite/gemm.h"
#include "accel/machsuite/md_knn.h"
#include "accel/machsuite/nw.h"
#include "accel/machsuite/stencil.h"
#include "accel/memcpy_core.h"
#include "base/log.h"
#include "base/rng.h"
#include "baselines/machsuite_golden.h"
#include "baselines/raw_memcpy.h"
#include "bench.h"
#include "lint/lint.h"
#include "platform/aws_f1.h"
#include "runtime/fpga_handle.h"
#include "verify/fuzz.h"
#include "verify/invariants.h"
#include "verify/traffic.h"

namespace perfbench
{

using namespace beethoven;
using namespace beethoven::machsuite;

namespace
{

/** The paper benches' kernel; Simulator still defaults to tick. */
constexpr SimKernel kKernel = SimKernel::Event;

/** Stats tree plus final cycle: the form runFuzzCase digests. */
std::string
statsDigest(Simulator &sim)
{
    sim.publishStallStats();
    std::ostringstream os;
    sim.stats().dumpJson(os);
    os << "@" << static_cast<unsigned long long>(sim.cycle());
    return os.str();
}

/** Fold one finished SoC into the round's fingerprint and tally. */
void
fingerprint(RoundResult &r, const std::string &digest, const Tracer &t)
{
    r.statsHash = fnv1a(digest, r.statsHash);
    if (t.enabled())
        r.model.add(digest.substr(0, digest.rfind('@')));
}

/** DMA @p p to the device inside a "dma" span carrying its bytes. */
void
dmaIn(fpga_handle_t &h, const remote_ptr &p, Tracer &t)
{
    Phase d(t, "dma");
    d.work(double(p.size()));
    h.copy_to_fpga(p);
}

void
dmaOut(fpga_handle_t &h, remote_ptr &p, Tracer &t)
{
    Phase d(t, "dma");
    d.work(double(p.size()));
    h.copy_from_fpga(p);
}

/** An elaborated SoC with its runtime, invariants armed. */
struct SocRun
{
    std::unique_ptr<AcceleratorSoc> soc;
    std::unique_ptr<SocInvariants> inv;
    std::unique_ptr<RuntimeServer> server;
    std::unique_ptr<fpga_handle_t> handle;

    SocRun(AcceleratorConfig cfg, const Platform &platform, Tracer &t)
    {
        {
            Phase e(t, "elab");
            soc = std::make_unique<AcceleratorSoc>(std::move(cfg),
                                                   platform);
        }
        Phase rt(t, "runtime.init");
        soc->sim().setKernel(kKernel);
        inv = std::make_unique<SocInvariants>(*soc);
        server = std::make_unique<RuntimeServer>(*soc);
        handle = std::make_unique<fpga_handle_t>(*server);
    }

    /** Destroy in dependency order inside a "teardown" span. */
    void
    teardown(Tracer &t)
    {
        Phase td(t, "teardown");
        handle.reset();
        server.reset();
        inv.reset();
        soc.reset();
    }
};

// --- machsuite ----------------------------------------------------------

/** One core's operands and the golden check of its output. */
struct CoreJob
{
    std::vector<u64> args;
    remote_ptr out;
    /** Empty when @p out matches the golden model, else why not. */
    std::function<std::string(const remote_ptr &)> verify;
};

struct KernelSizes
{
    unsigned gemm, nw, stencil2d, stencil3d, mdN, mdK;
};

template <typename T>
std::string
compareWords(const remote_ptr &out, const std::vector<T> &golden)
{
    const u8 *p = out.getHostAddr();
    for (std::size_t i = 0; i < golden.size(); ++i) {
        T v;
        std::memcpy(&v, p + i * sizeof(T), sizeof(T));
        if (v != golden[i])
            return "word " + std::to_string(i) + " differs from golden";
    }
    return "";
}

CoreJob
prepGemm(fpga_handle_t &h, Rng &rng, const KernelSizes &s, Tracer &t)
{
    const unsigned n = s.gemm;
    const std::size_t bytes = std::size_t(n) * n * 4;
    CoreJob job;
    std::vector<i32> a(std::size_t(n) * n), bt(std::size_t(n) * n);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<i32>(rng.nextRange(0, 200)) - 100;
        bt[i] = static_cast<i32>(rng.nextRange(0, 200)) - 100;
    }
    remote_ptr am = h.malloc(bytes), btm = h.malloc(bytes);
    job.out = h.malloc(bytes);
    std::memcpy(am.getHostAddr(), a.data(), bytes);
    std::memcpy(btm.getHostAddr(), bt.data(), bytes);
    dmaIn(h, am, t);
    dmaIn(h, btm, t);
    job.args = {am.getFpgaAddr(), btm.getFpgaAddr(),
                job.out.getFpgaAddr(), n};
    job.verify = [a, bt, n](const remote_ptr &out) {
        return compareWords(out, goldenGemm(a, bt, n));
    };
    return job;
}

CoreJob
prepNw(fpga_handle_t &h, Rng &rng, const KernelSizes &s, Tracer &t)
{
    const unsigned n = s.nw;
    CoreJob job;
    std::vector<u8> a(n), b(n);
    for (unsigned i = 0; i < n; ++i) {
        a[i] = static_cast<u8>("ACGT"[rng.nextBounded(4)]);
        b[i] = static_cast<u8>("ACGT"[rng.nextBounded(4)]);
    }
    remote_ptr am = h.malloc(n), bm = h.malloc(n);
    job.out = h.malloc((n + 1) * 4);
    std::memcpy(am.getHostAddr(), a.data(), n);
    std::memcpy(bm.getHostAddr(), b.data(), n);
    dmaIn(h, am, t);
    dmaIn(h, bm, t);
    job.args = {am.getFpgaAddr(), bm.getFpgaAddr(), job.out.getFpgaAddr(),
                n};
    job.verify = [a, b, n](const remote_ptr &out) {
        return compareWords(out, goldenNw(a, b, n));
    };
    return job;
}

CoreJob
prepStencil2d(fpga_handle_t &h, Rng &rng, const KernelSizes &s, Tracer &t)
{
    const unsigned n = s.stencil2d;
    const std::size_t bytes = std::size_t(n) * n * 4;
    CoreJob job;
    std::vector<i32> in(std::size_t(n) * n);
    for (auto &v : in)
        v = static_cast<i32>(rng.nextRange(0, 100));
    remote_ptr im = h.malloc(bytes);
    job.out = h.malloc(bytes);
    std::memcpy(im.getHostAddr(), in.data(), bytes);
    dmaIn(h, im, t);
    job.args = {im.getFpgaAddr(), job.out.getFpgaAddr(), n, n};
    job.verify = [in, n](const remote_ptr &out) {
        return compareWords(out, goldenStencil2d(in, n, n));
    };
    return job;
}

CoreJob
prepStencil3d(fpga_handle_t &h, Rng &rng, const KernelSizes &s, Tracer &t)
{
    const unsigned n = s.stencil3d;
    const std::size_t bytes = std::size_t(n) * n * n * 4;
    CoreJob job;
    std::vector<i32> in(std::size_t(n) * n * n);
    for (auto &v : in)
        v = static_cast<i32>(rng.nextRange(0, 100));
    remote_ptr im = h.malloc(bytes);
    job.out = h.malloc(bytes);
    std::memcpy(im.getHostAddr(), in.data(), bytes);
    dmaIn(h, im, t);
    job.args = {im.getFpgaAddr(), job.out.getFpgaAddr(), n};
    job.verify = [in, n](const remote_ptr &out) {
        return compareWords(out, goldenStencil3d(in, n));
    };
    return job;
}

CoreJob
prepMdKnn(fpga_handle_t &h, Rng &rng, const KernelSizes &s, Tracer &t)
{
    const unsigned n = s.mdN, k = s.mdK;
    CoreJob job;
    std::vector<double> pos(3 * std::size_t(n));
    for (auto &v : pos)
        v = 1.0 + rng.nextDouble() * 10.0;
    std::vector<i32> nl(std::size_t(n) * k);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < k; ++j) {
            u64 nb;
            do {
                nb = rng.nextBounded(n);
            } while (nb == i);
            nl[std::size_t(i) * k + j] = static_cast<i32>(nb);
        }
    }
    // One atom per 32-byte row, positions and forces alike.
    remote_ptr pm = h.malloc(std::size_t(n) * 32);
    remote_ptr nm = h.malloc(std::size_t(n) * k * 4);
    job.out = h.malloc(std::size_t(n) * 32);
    for (unsigned i = 0; i < n; ++i)
        std::memcpy(pm.getHostAddr() + std::size_t(i) * 32, &pos[3 * i],
                    24);
    std::memcpy(nm.getHostAddr(), nl.data(), nl.size() * 4);
    dmaIn(h, pm, t);
    dmaIn(h, nm, t);
    job.args = {pm.getFpgaAddr(), nm.getFpgaAddr(), job.out.getFpgaAddr(),
                n, k};
    job.verify = [pos, nl, n, k](const remote_ptr &out) {
        const std::vector<double> g = goldenMdKnn(pos, nl, n, k);
        for (unsigned i = 0; i < n; ++i) {
            double f[3];
            std::memcpy(f, out.getHostAddr() + std::size_t(i) * 32, 24);
            for (unsigned d = 0; d < 3; ++d) {
                if (f[d] != g[3 * i + d])
                    return "atom " + std::to_string(i) +
                           " force differs from golden";
            }
        }
        return std::string();
    };
    return job;
}

struct MachKernel
{
    const char *name;
    const char *system;
    const char *command;
    unsigned opsPerCore;
    AcceleratorSystemConfig (*config)(unsigned);
    CoreJob (*prep)(fpga_handle_t &, Rng &, const KernelSizes &,
                    Tracer &);
};

const MachKernel kMachKernels[] = {
    {"GeMM", "GemmSystem", "gemm", 1,
     [](unsigned n) { return GemmCore::systemConfig(n); }, prepGemm},
    {"NW", "NwSystem", "nw", 2,
     [](unsigned n) { return NwCore::systemConfig(n); }, prepNw},
    {"Stencil2D", "Stencil2dSystem", "stencil2d", 1,
     [](unsigned n) { return Stencil2dCore::systemConfig(n); },
     prepStencil2d},
    {"Stencil3D", "Stencil3dSystem", "stencil3d", 2,
     [](unsigned n) { return Stencil3dCore::systemConfig(n); },
     prepStencil3d},
    {"MD-KNN", "MdKnnSystem", "md_knn", 2,
     [](unsigned n) { return MdKnnCore::systemConfig(n); }, prepMdKnn},
};

/** fig6's fit search: largest core count that elaborates (<= 256). */
unsigned
maxCoresThatFit(const MachKernel &k, const Platform &platform, Tracer &t)
{
    auto fits = [&](unsigned n) {
        std::unique_ptr<AcceleratorSoc> soc;
        try {
            Phase e(t, "elab");
            soc = std::make_unique<AcceleratorSoc>(
                AcceleratorConfig(k.config(n)), platform);
        } catch (const ConfigError &) {
            return false;
        }
        Phase td(t, "teardown");
        soc.reset();
        return true;
    };
    if (!fits(1))
        return 0;
    unsigned lo = 1, hi = 256;
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

void
runMachKernel(const MachKernel &k, std::size_t kidx,
              const WorkloadOptions &opt, Tracer &t, RoundResult &r)
{
    static const KernelSizes full{256, 256, 256, 32, 1024, 32};
    static const KernelSizes smoke{32, 64, 32, 8, 64, 8};
    const KernelSizes &sizes = opt.smoke ? smoke : full;

    AwsF1Platform platform;
    // MachSuite designs run at the default 125 MHz (Section III-B).
    platform.setClockMHz(125);

    std::unique_ptr<SocRun> run;
    std::vector<CoreJob> jobs;
    unsigned cores = 0;
    {
        Phase setup(t, "setup", &r.setup);
        const unsigned fit =
            opt.smoke ? 1 : maxCoresThatFit(k, platform, t);
        if (fit == 0)
            fatal("%s does not fit the device", k.name);
        cores = std::min(fit, 4u);
        run = std::make_unique<SocRun>(AcceleratorConfig(k.config(cores)),
                                       platform, t);
        Phase prep(t, "prep");
        for (unsigned c = 0; c < cores; ++c) {
            Rng rng(opt.seed * 1000003ULL + kidx * 101 + c + 1);
            jobs.push_back(k.prep(*run->handle, rng, sizes, t));
        }
    }
    const unsigned ops = 1 + k.opsPerCore * cores;
    r.ops += ops;

    fpga_handle_t &h = *run->handle;
    {
        Phase measure(t, "measure", &r.measure);
        const u64 txns0 = run->soc->mmio().transactions();
        const Cycle c0 = run->soc->sim().cycle();
        // Single-core latency first, then every core opsPerCore times.
        {
            response_handle<u64> single;
            {
                Phase p(t, "invoke");
                single = h.invoke(k.system, k.command, 0, jobs[0].args);
            }
            Phase w(t, "wait");
            single.get();
        }
        std::vector<response_handle<u64>> pending;
        for (unsigned op = 0; op < k.opsPerCore; ++op) {
            for (unsigned c = 0; c < cores; ++c) {
                Phase p(t, "invoke");
                pending.push_back(
                    h.invoke(k.system, k.command, c, jobs[c].args));
            }
        }
        for (auto &p : pending) {
            Phase w(t, "wait");
            p.get();
        }
        r.pinCycles += run->soc->sim().cycle() - c0;
        r.mmioTxns += run->soc->mmio().transactions() - txns0;
        r.mmioOps += ops;
    }
    {
        Phase check(t, "check");
        for (unsigned c = 0; c < cores; ++c) {
            dmaOut(h, jobs[c].out, t);
            if (opt.plantWrong && kidx == 0 && c == 0)
                jobs[c].out.getHostAddr()[0] ^= 1;
            const std::string why = jobs[c].verify(jobs[c].out);
            if (!why.empty()) {
                r.fail(std::string(k.name) + " core " +
                           std::to_string(c) + ": " + why,
                       k.opsPerCore + (c == 0 ? 1 : 0));
            }
        }
        run->inv->checkFinal();
        fingerprint(r, statsDigest(run->soc->sim()), t);
    }
    jobs.clear();
    run->teardown(t);
}

// --- memcpy_stream ------------------------------------------------------

constexpr Addr kRawSrc = 0x100000;
constexpr Addr kRawDst = 0x4000000;

/** A raw AXI engine copy on a bare DRAM controller (HLS / pure-HDL). */
void
rawCopy(const RawAxiMemcpy::Params &params, u64 len, Rng &rng,
        const WorkloadOptions &opt, Tracer &t, RoundResult &r)
{
    FunctionalMemory mem;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<DramController> ctrl;
    std::unique_ptr<RawAxiMemcpy> engine;
    std::vector<u8> src(len);
    {
        Phase setup(t, "setup", &r.setup);
        sim = std::make_unique<Simulator>();
        DramController::Config cfg;
        cfg.axi = AwsF1Platform().memoryConfig();
        cfg.timing = AwsF1Platform().dramTiming();
        ctrl = std::make_unique<DramController>(*sim, "ddr", cfg, mem);
        engine = std::make_unique<RawAxiMemcpy>(*sim, "memcpy", params,
                                                *ctrl);
        sim->setKernel(kKernel);
        for (auto &b : src)
            b = static_cast<u8>(rng.next());
        mem.write(kRawSrc, len, src.data());
    }
    r.ops += 1;
    {
        Phase measure(t, "measure", &r.measure);
        const Cycle c0 = sim->cycle();
        engine->start(kRawSrc, kRawDst, len);
        {
            Phase w(t, "wait");
            if (!sim->runUntil([&] { return engine->done(); },
                               100'000'000ULL))
                fatal("raw copy of %llu bytes did not complete",
                      static_cast<unsigned long long>(len));
        }
        r.pinCycles += sim->cycle() - c0;
    }
    {
        Phase check(t, "check");
        std::vector<u8> dst(len);
        mem.read(kRawDst, len, dst.data());
        if (opt.plantWrong && r.ops == 1)
            dst[0] ^= 1;
        if (dst != src)
            r.fail("raw copy of " + std::to_string(len) +
                   " bytes: dst differs from src");
        fingerprint(r, statsDigest(*sim), t);
    }
    Phase td(t, "teardown");
    engine.reset();
    ctrl.reset();
    sim.reset();
}

/** One Beethoven memcpy through SoC, runtime and MMIO. */
void
socCopy(const MemcpyCore::Variant &variant, u64 len, Rng &rng,
        const WorkloadOptions &opt, Tracer &t, RoundResult &r)
{
    AwsF1Platform platform;
    std::unique_ptr<SocRun> run;
    remote_ptr src, dst;
    {
        Phase setup(t, "setup", &r.setup);
        run = std::make_unique<SocRun>(
            AcceleratorConfig(MemcpyCore::systemConfig(1, variant)),
            platform, t);
        Phase prep(t, "prep");
        src = run->handle->malloc(len);
        dst = run->handle->malloc(len);
        for (u64 i = 0; i < len; ++i)
            src.getHostAddr()[i] = static_cast<u8>(rng.next());
        dmaIn(*run->handle, src, t);
    }
    r.ops += 1;
    {
        Phase measure(t, "measure", &r.measure);
        const u64 txns0 = run->soc->mmio().transactions();
        const Cycle c0 = run->soc->sim().cycle();
        response_handle<u64> resp;
        {
            Phase p(t, "invoke");
            resp = run->handle->invoke(
                "MemcpySystem", "do_memcpy", 0,
                {src.getFpgaAddr(), dst.getFpgaAddr(), len});
        }
        {
            Phase w(t, "wait");
            resp.get();
        }
        r.pinCycles += run->soc->sim().cycle() - c0;
        r.mmioTxns += run->soc->mmio().transactions() - txns0;
        r.mmioOps += 1;
    }
    {
        Phase check(t, "check");
        dmaOut(*run->handle, dst, t);
        if (opt.plantWrong && r.ops == 1)
            dst.getHostAddr()[0] ^= 1;
        if (std::memcmp(dst.getHostAddr(), src.getHostAddr(), len) != 0)
            r.fail("Beethoven copy of " + std::to_string(len) +
                   " bytes: dst differs from src");
        run->inv->checkFinal();
        fingerprint(r, statsDigest(run->soc->sim()), t);
    }
    run->teardown(t);
}

// --- fuzz ---------------------------------------------------------------

/**
 * Replays @p c's traffic through the public runtime with spans around
 * elaboration, DMA, invoke, wait, check and teardown. runFuzzCase runs
 * these steps inside the library, where the benchmark cannot see them;
 * the replica exposes them to the traced run. Operand data stay zero:
 * only the layer costs are of interest here, and runFuzzCase already
 * checked the results.
 */
void
replicaCase(const verify::FuzzCase &c, Tracer &t, RoundResult &r)
{
    using namespace beethoven::verify;
    const FuzzPlatform platform(c.platform);
    SocRun run(buildAcceleratorConfig(c), platform, t);
    fpga_handle_t &h = *run.handle;
    std::vector<std::vector<u64>> launches;
    {
        Phase prep(t, "prep");
        auto buffer = [&](std::size_t bytes) {
            const remote_ptr p = h.malloc(bytes);
            dmaIn(h, p, t);
            return p.getFpgaAddr();
        };
        for (const FuzzOp &op : c.ops) {
            const FuzzSystem &fs = c.systems[op.system];
            std::vector<u64> args;
            switch (fs.kind) {
              case FuzzKind::VecAdd:
                args = {1, buffer(std::size_t(op.size) * 4), op.size};
                break;
              case FuzzKind::Memcpy: {
                const u64 len = u64(op.size) * fs.chan.dataBytes;
                args = {buffer(len), buffer(len), len};
                break;
              }
              case FuzzKind::SpadLoop: {
                const u64 len = u64(op.size) * 4;
                args = {buffer(len), buffer(len), op.size};
                break;
              }
              case FuzzKind::Gemm: {
                const u64 n = u64(op.size) * GemmCore::lanes;
                const std::size_t bytes = n * n * 4;
                args = {buffer(bytes), buffer(bytes), buffer(bytes), n};
                break;
              }
            }
            launches.push_back(std::move(args));
        }
    }
    {
        Phase measure(t, "measure");
        const u64 txns0 = run.soc->mmio().transactions();
        std::vector<response_handle<u64>> pending;
        for (std::size_t i = 0; i < c.ops.size(); ++i) {
            const FuzzOp &op = c.ops[i];
            Phase p(t, "invoke");
            pending.push_back(
                h.invoke(fuzzSystemName(op.system),
                         fuzzCommandName(c.systems[op.system].kind),
                         op.core, launches[i]));
        }
        for (auto &p : pending) {
            Phase w(t, "wait");
            p.get();
        }
        r.mmioTxns += run.soc->mmio().transactions() - txns0;
        r.mmioOps += c.ops.size();
    }
    {
        Phase check(t, "check");
        run.inv->checkFinal();
    }
    run.teardown(t);
}

} // namespace

RoundResult
runMachsuiteRound(const WorkloadOptions &opt, Tracer &t)
{
    RoundResult r;
    const u64 t0 = nowNs();
    Phase round(t, "round");
    for (std::size_t i = 0; i < std::size(kMachKernels); ++i) {
        const u64 ops_before = r.ops;
        Phase cs(t, "case");
        try {
            runMachKernel(kMachKernels[i], i, opt, t, r);
        } catch (const ConfigError &e) {
            // A kernel that throws mid-run fails all of its ops.
            const u64 counted = r.ops - ops_before;
            r.fail(std::string(kMachKernels[i].name) + ": " + e.what(),
                   counted == 0 ? 1 : counted);
            if (counted == 0)
                r.ops += 1;
        }
    }
    round.end();
    r.totalNs = nowNs() - t0;
    return r;
}

RoundResult
runMemcpyRound(const WorkloadOptions &opt, Tracer &t)
{
    RawAxiMemcpy::Params hls; // 16-beat bursts, several in flight, 1 ID
    hls.burstBeats = 16;
    hls.maxInflightReads = 4;
    hls.maxInflightWrites = 4;
    RawAxiMemcpy::Params hdl; // 64-beat bursts, one per ID, 1 ID
    hdl.burstBeats = 64;
    MemcpyCore::Variant tlp16;
    MemcpyCore::Variant tlp64;
    tlp64.burstBeats = 64;
    MemcpyCore::Variant no_tlp;
    no_tlp.useTlp = false;
    no_tlp.burstBeats = 64;

    const std::vector<u64> sizes =
        opt.smoke ? std::vector<u64>{4096, 16384}
                  : std::vector<u64>{4096, 16384, 65536, 262144, 1048576,
                                     4194304};
    RoundResult r;
    const u64 t0 = nowNs();
    Phase round(t, "round");
    Rng rng(opt.seed * 7919ULL + 17);
    for (u64 len : sizes) {
        const std::function<void()> copies[] = {
            [&] { rawCopy(hls, len, rng, opt, t, r); },
            [&] { rawCopy(hdl, len, rng, opt, t, r); },
            [&] { socCopy(tlp64, len, rng, opt, t, r); },
            [&] { socCopy(no_tlp, len, rng, opt, t, r); },
            [&] { socCopy(tlp16, len, rng, opt, t, r); },
        };
        for (const auto &copy : copies) {
            const u64 ops_before = r.ops;
            Phase cs(t, "case");
            try {
                copy();
            } catch (const ConfigError &e) {
                if (r.ops == ops_before)
                    r.ops += 1;
                r.fail(std::to_string(len) + "-byte copy: " + e.what());
            }
        }
    }
    round.end();
    r.totalNs = nowNs() - t0;
    return r;
}

RoundResult
runFuzzRound(const WorkloadOptions &opt, Tracer &t)
{
    using namespace beethoven::verify;
    // soc_fuzz's default traffic depth. Deeper schedules can hang in
    // RuntimeServer::sendCommand (see perfbench/README.md).
    constexpr unsigned kOpsPerCase = 8;
    const unsigned n_cases = opt.smoke ? 20 : 1000;
    const unsigned n_replica = opt.smoke ? 4 : 50;

    RoundResult r;
    const u64 t0 = nowNs();
    Phase round(t, "round");
    std::vector<FuzzCase> cases;
    {
        Phase setup(t, "setup", &r.setup);
        for (unsigned i = 0; i < n_cases; ++i) {
            const u64 case_seed = opt.seed * 1000ULL + i;
            FuzzCase c = RandomSocBuilder(case_seed).sample();
            RandomTrafficGen(case_seed ^ 0x74726166666963ULL)
                .generate(c, kOpsPerCase);
            // Every sampled case must be lint-clean, as in soc_fuzz.
            if (lint::lintComposition(buildAcceleratorConfig(c),
                                      FuzzPlatform(c.platform))
                    .hasErrors()) {
                r.ops += 1;
                r.fail("case seed " + std::to_string(case_seed) +
                       " is not lint-clean");
                continue;
            }
            cases.push_back(std::move(c));
        }
        if (opt.plantWrong && !cases.empty())
            cases.front().plantViolation = true;
    }

    FuzzOptions fo;
    fo.kernel = kKernel;
    for (const FuzzCase &c : cases) {
        FuzzResult res;
        {
            Phase cs(t, "case", &r.measure);
            res = runFuzzCase(c, fo);
            cs.work(double(res.cycles));
        }
        r.ops += 1;
        r.pinCycles += res.cycles;
        if (res.kind != FailKind::None) {
            r.fail("case seed " + std::to_string(c.seed) + ": " +
                   failKindName(res.kind) + " " + res.message);
        }
        Phase fp(t, "fingerprint");
        fingerprint(r, res.statsDigest, t);
    }

    if (t.enabled()) {
        Phase probe(t, "replica");
        for (unsigned i = 0; i < n_replica && i < cases.size(); ++i) {
            try {
                replicaCase(cases[i], t, r);
            } catch (const ConfigError &e) {
                r.fail("replica of case seed " +
                       std::to_string(cases[i].seed) + ": " + e.what());
            }
        }
    }
    round.end();
    r.totalNs = nowNs() - t0;
    return r;
}

} // namespace perfbench
