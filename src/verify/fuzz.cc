#include "verify/fuzz.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "accel/machsuite/gemm.h"
#include "base/decimal.h"
#include "base/json.h"
#include "base/log.h"
#include "baselines/machsuite_golden.h"
#include "power/power.h"
#include "runtime/fpga_handle.h"
#include "sim/graph_record.h"
#include "verify/golden.h"
#include "verify/invariants.h"

namespace beethoven::verify
{

const char *
failKindName(FailKind k)
{
    switch (k) {
      case FailKind::None:       return "none";
      case FailKind::BuildError: return "build-error";
      case FailKind::Violation:  return "violation";
      case FailKind::Hang:       return "hang";
      case FailKind::Mismatch:   return "mismatch";
      case FailKind::Divergence: return "divergence";
    }
    return "?";
}

// --- Execution --------------------------------------------------------

namespace
{

struct PendingResponse
{
    response_handle<u64> handle;
    std::string label;
};

/** Allocate, seed, golden-register and dispatch one traffic op. */
void
launchOp(const FuzzCase &c, std::size_t op_idx, fpga_handle_t &handle,
         GoldenMemory &golden, std::vector<remote_ptr> &keep_alive,
         std::vector<PendingResponse> &pending)
{
    const FuzzOp &op = c.ops[op_idx];
    if (op.system >= c.systems.size())
        fatal("fuzz op %zu targets system %u of %zu", op_idx, op.system,
              c.systems.size());
    const FuzzSystem &fs = c.systems[op.system];
    const std::string sys_name = fuzzSystemName(op.system);
    const std::string label = "op" + std::to_string(op_idx) + "." +
                              fuzzKindName(fs.kind);
    Rng rng(op.dataSeed);

    switch (fs.kind) {
      case FuzzKind::VecAdd: {
        const unsigned n = op.size;
        remote_ptr buf = handle.malloc(std::size_t(n) * 4);
        const u32 addend = static_cast<u32>(rng.next());
        u32 *vals = buf.as<u32>();
        std::vector<u8> expect(std::size_t(n) * 4);
        for (unsigned i = 0; i < n; ++i) {
            vals[i] = static_cast<u32>(rng.next());
            const u32 e = vals[i] + addend;
            std::memcpy(&expect[std::size_t(i) * 4], &e, 4);
        }
        handle.copy_to_fpga(buf);
        golden.expect(buf, std::move(expect), label);
        keep_alive.push_back(buf);
        pending.push_back(
            {handle.invoke(sys_name, "my_accel", op.core,
                           {addend, buf.getFpgaAddr(), n}),
             label});
        break;
      }
      case FuzzKind::Memcpy:
      case FuzzKind::SpadLoop: {
        const u64 len = fs.kind == FuzzKind::Memcpy
                            ? u64(op.size) * fs.chan.dataBytes
                            : u64(op.size) * 4;
        remote_ptr src = handle.malloc(len);
        remote_ptr dst = handle.malloc(len);
        u8 *s = src.getHostAddr();
        std::vector<u8> expect(len);
        for (u64 i = 0; i < len; ++i) {
            s[i] = static_cast<u8>(rng.next());
            expect[i] = s[i];
        }
        handle.copy_to_fpga(src);
        handle.copy_to_fpga(dst); // defined (zero) initial contents
        golden.expect(src, expect, label + ".src"); // source untouched
        golden.expect(dst, std::move(expect), label + ".dst");
        keep_alive.push_back(src);
        keep_alive.push_back(dst);
        if (fs.kind == FuzzKind::Memcpy) {
            pending.push_back(
                {handle.invoke(sys_name, "do_memcpy", op.core,
                               {src.getFpgaAddr(), dst.getFpgaAddr(),
                                len}),
                 label});
        } else {
            pending.push_back(
                {handle.invoke(sys_name, "spad_copy", op.core,
                               {src.getFpgaAddr(), dst.getFpgaAddr(),
                                op.size}),
                 label});
        }
        break;
      }
      case FuzzKind::Gemm: {
        const unsigned n = op.size * machsuite::GemmCore::lanes;
        std::vector<i32> a(std::size_t(n) * n), bt(std::size_t(n) * n);
        for (auto &v : a)
            v = static_cast<i32>(rng.nextRange(0, 2000)) - 1000;
        for (auto &v : bt)
            v = static_cast<i32>(rng.nextRange(0, 2000)) - 1000;
        const std::size_t bytes = std::size_t(n) * n * sizeof(i32);
        remote_ptr a_mem = handle.malloc(bytes);
        remote_ptr bt_mem = handle.malloc(bytes);
        remote_ptr c_mem = handle.malloc(bytes);
        std::memcpy(a_mem.getHostAddr(), a.data(), bytes);
        std::memcpy(bt_mem.getHostAddr(), bt.data(), bytes);
        handle.copy_to_fpga(a_mem);
        handle.copy_to_fpga(bt_mem);
        handle.copy_to_fpga(c_mem);
        const std::vector<i32> c_golden = machsuite::goldenGemm(a, bt, n);
        std::vector<u8> expect(bytes);
        std::memcpy(expect.data(), c_golden.data(), bytes);
        golden.expect(c_mem, std::move(expect), label + ".c");
        keep_alive.push_back(a_mem);
        keep_alive.push_back(bt_mem);
        keep_alive.push_back(c_mem);
        pending.push_back(
            {handle.invoke(sys_name, "gemm", op.core,
                           {a_mem.getFpgaAddr(), bt_mem.getFpgaAddr(),
                            c_mem.getFpgaAddr(), n}),
             label});
        break;
      }
    }
}

/** One elaborate-run-check pass under a single kernel. */
FuzzResult
runFuzzCaseOnce(const FuzzCase &c, const FuzzOptions &opt,
                SimKernel kernel)
{
    FuzzResult res;
    std::optional<FuzzPlatform> platform;
    std::optional<AcceleratorSoc> soc;
    try {
        // Armed before elaboration so the suppressed wake lands inside
        // the SoC's own wiring; auto-disarms when it fires, and is
        // explicitly cleared afterwards in case the count overshot.
        if (c.plantWakeViolation != 0)
            plantMissingPushWake(c.plantWakeViolation);
        platform.emplace(c.platform);
        soc.emplace(buildAcceleratorConfig(c), *platform);
        plantMissingPushWake(0);
    } catch (const ConfigError &e) {
        plantMissingPushWake(0);
        res.kind = FailKind::BuildError;
        res.message = e.what();
        return res;
    }
    soc->sim().setKernel(kernel);
    if (c.plantLostWake != 0)
        soc->sim().plantLostWakes(c.plantLostWake);

    RuntimeServer server(*soc);
    fpga_handle_t handle(server);
    SocInvariants inv(*soc);
    // Energy conservation rides along with the protocol invariants:
    // the periodic check re-sums the ledger's component energies
    // against the SoC total every kInvariantPeriod cycles.
    EnergyConservationInvariant energy_inv(soc->power());
    soc->sim().registerInvariant(&energy_inv);
    if (c.plantPowerViolation)
        soc->power().plantEnergyLeak(0.5);
    soc->sim().setWatchdog(opt.watchdogCycles);

    auto finalize = [&](FuzzResult r) {
        r.cycles = soc->sim().cycle();
        r.axiEvents = inv.axiEventsSeen();
        r.responses = inv.responsesSeen();
        // The digest the differential mode compares: the entire stats
        // tree (stall accounts published) plus the final cycle.
        soc->sim().publishStallStats();
        std::ostringstream digest;
        soc->sim().stats().dumpJson(digest);
        digest << "@" << static_cast<unsigned long long>(r.cycles);
        r.statsDigest = digest.str();
        return r;
    };

    GoldenMemory golden;
    std::vector<remote_ptr> keep_alive;
    std::vector<PendingResponse> pending;
    try {
        if (c.plantViolation) {
            AxiEvent ev;
            ev.cycle = soc->sim().cycle();
            ev.channel = AxiChannel::R;
            ev.id = 0;
            ev.tag = 0xDEADBEEFULL;
            ev.last = true;
            inv.injectAxiEvent(ev);
        }
        for (std::size_t i = 0; i < c.ops.size(); ++i)
            launchOp(c, i, handle, golden, keep_alive, pending);

        while (!pending.empty()) {
            if (soc->sim().cycle() > opt.maxCycles) {
                res.kind = FailKind::Hang;
                std::ostringstream os;
                os << "cycle budget "
                   << static_cast<unsigned long long>(opt.maxCycles)
                   << " exceeded with " << pending.size()
                   << " responses outstanding";
                res.message = os.str();
                return finalize(res);
            }
            bool collected = false;
            for (auto it = pending.begin(); it != pending.end();) {
                if (auto v = it->handle.try_get()) {
                    if (*v != 0) {
                        res.kind = FailKind::Mismatch;
                        std::ostringstream os;
                        os << it->label << ": response payload " << *v
                           << ", golden model says 0";
                        res.message = os.str();
                        return finalize(res);
                    }
                    it = pending.erase(it);
                    collected = true;
                } else {
                    ++it;
                }
            }
            if (!collected)
                soc->sim().run(64);
        }

        inv.checkFinal();
        const std::string d = golden.diff(handle);
        if (!d.empty()) {
            res.kind = FailKind::Mismatch;
            res.message = d;
        }
    } catch (const ConfigError &e) {
        res.message = e.what();
        const std::string &msg = res.message;
        if (msg.find("invariant violation") != std::string::npos)
            res.kind = FailKind::Violation;
        else if (msg.find("hang") != std::string::npos ||
                 msg.find("timed out") != std::string::npos)
            res.kind = FailKind::Hang;
        else
            res.kind = FailKind::Violation;
    }
    return finalize(res);
}

/** Index of the first byte where @p a and @p b differ. */
std::size_t
firstDiff(const std::string &a, const std::string &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return n;
}

} // namespace

FuzzResult
runFuzzCase(const FuzzCase &c, const FuzzOptions &opt)
{
    if (!opt.differential)
        return runFuzzCaseOnce(c, opt, opt.kernel);

    // Differential mode: the tick kernel is the reference semantics
    // and the event kernel the optimization under test. Any observable
    // difference — outcome kind, final cycle, or a single byte of the
    // stats digest — is a Divergence.
    const FuzzResult tick = runFuzzCaseOnce(c, opt, SimKernel::Tick);
    const FuzzResult event = runFuzzCaseOnce(c, opt, SimKernel::Event);
    if (tick.kind == event.kind && tick.cycles == event.cycles &&
        tick.statsDigest == event.statsDigest)
        return tick;

    FuzzResult res = event;
    res.kind = FailKind::Divergence;
    std::ostringstream os;
    os << "tick/event kernels diverged:";
    if (tick.kind != event.kind) {
        os << " kind " << failKindName(tick.kind) << " vs "
           << failKindName(event.kind);
    }
    if (tick.cycles != event.cycles) {
        os << " cycles " << static_cast<unsigned long long>(tick.cycles)
           << " vs " << static_cast<unsigned long long>(event.cycles);
    }
    if (tick.statsDigest != event.statsDigest) {
        const std::size_t at =
            firstDiff(tick.statsDigest, event.statsDigest);
        os << " stats digest first differs at byte " << at;
        const std::string ctx =
            tick.statsDigest.substr(at > 40 ? at - 40 : 0, 80);
        os << " (tick context: ..." << ctx << "...)";
    }
    if (!tick.message.empty() || !event.message.empty()) {
        os << "; tick: " << (tick.message.empty() ? "ok" : tick.message)
           << "; event: "
           << (event.message.empty() ? "ok" : event.message);
    }
    res.message = os.str();
    return res;
}

// --- Shrinking --------------------------------------------------------

FuzzCase
shrink(FuzzCase c, const FuzzOptions &opt, FailKind kind,
       unsigned max_attempts, unsigned *attempts_out)
{
    unsigned attempts = 0;
    bool changed = true;

    // Accept @p cand iff it actually differs and reproduces the same
    // failure kind. The no-op guard matters: passes that normalize
    // toward defaults would otherwise "accept" an unchanged case every
    // round and spin until the attempt budget runs out.
    auto try_accept = [&](const FuzzCase &cand) {
        if (fuzzCaseToJson(cand) == fuzzCaseToJson(c))
            return false;
        if (attempts >= max_attempts)
            return false;
        ++attempts;
        if (runFuzzCase(cand, opt).kind != kind)
            return false;
        c = cand;
        changed = true;
        return true;
    };

    while (changed && attempts < max_attempts) {
        changed = false;

        // 1. Truncate traffic: halves first, then single ops.
        while (!c.ops.empty()) {
            FuzzCase cand = c;
            cand.ops.resize(c.ops.size() / 2);
            if (!try_accept(cand))
                break;
        }
        for (std::size_t i = 0; i < c.ops.size();) {
            FuzzCase cand = c;
            cand.ops.erase(cand.ops.begin() +
                           static_cast<std::ptrdiff_t>(i));
            if (!try_accept(cand))
                ++i;
        }

        // 2. Halve per-op workload sizes.
        for (std::size_t i = 0; i < c.ops.size(); ++i) {
            while (c.ops[i].size > 1) {
                FuzzCase cand = c;
                cand.ops[i].size = c.ops[i].size / 2;
                if (!try_accept(cand))
                    break;
            }
        }

        // 3. Drop whole systems (rewiring op indices).
        for (std::size_t s = 0; c.systems.size() > 1 &&
                                s < c.systems.size();) {
            FuzzCase cand = c;
            cand.systems.erase(cand.systems.begin() +
                               static_cast<std::ptrdiff_t>(s));
            cand.ops.clear();
            for (FuzzOp op : c.ops) {
                if (op.system == s)
                    continue;
                if (op.system > s)
                    --op.system;
                cand.ops.push_back(op);
            }
            if (!try_accept(cand))
                ++s;
        }

        // 4. Halve core counts.
        for (std::size_t s = 0; s < c.systems.size(); ++s) {
            while (c.systems[s].nCores > 1) {
                FuzzCase cand = c;
                cand.systems[s].nCores = c.systems[s].nCores / 2;
                for (FuzzOp &op : cand.ops) {
                    if (op.system == s)
                        op.core %= cand.systems[s].nCores;
                }
                if (!try_accept(cand))
                    break;
            }
        }

        // 5. Simplify channel / scratchpad knobs toward the trivial
        //    configuration.
        for (std::size_t s = 0; s < c.systems.size(); ++s) {
            const FuzzSystem &fs = c.systems[s];
            if (fs.chan.maxInflight != 1 || fs.chan.useTlp) {
                FuzzCase cand = c;
                cand.systems[s].chan.maxInflight = 1;
                cand.systems[s].chan.useTlp = false;
                try_accept(cand);
            }
            if (c.systems[s].chan.burstBeats > 4) {
                FuzzCase cand = c;
                cand.systems[s].chan.burstBeats = 4;
                try_accept(cand);
            }
            if (fs.kind == FuzzKind::Memcpy &&
                c.systems[s].chan.dataBytes != 64) {
                FuzzCase cand = c;
                cand.systems[s].chan.dataBytes = 64;
                try_accept(cand);
            }
            if (fs.kind == FuzzKind::SpadLoop) {
                unsigned max_words = 1;
                for (const FuzzOp &op : c.ops) {
                    if (op.system == s)
                        max_words = std::max(max_words, op.size);
                }
                if (c.systems[s].spadRows > 64 && max_words <= 64) {
                    FuzzCase cand = c;
                    cand.systems[s].spadRows = 64;
                    try_accept(cand);
                }
                if (c.systems[s].spadLatency != 1) {
                    FuzzCase cand = c;
                    cand.systems[s].spadLatency = 1;
                    try_accept(cand);
                }
            }
        }

        // 6. Flatten the platform, wholesale first, then per-group.
        {
            FuzzCase cand = c;
            cand.platform = FuzzPlatformKnobs{};
            if (!try_accept(cand)) {
                cand = c;
                cand.platform.nSlrs = 1;
                try_accept(cand);
                cand = c;
                cand.platform.nocFanout = 4;
                cand.platform.nocCrossingLatency = 4;
                cand.platform.nocQueueDepth = 2;
                try_accept(cand);
                cand = c;
                cand.platform.tRCD = 4;
                cand.platform.tRP = 4;
                cand.platform.tRAS = 8;
                cand.platform.tCAS = 4;
                cand.platform.tSwitch = 3;
                cand.platform.nBankGroups = 4;
                cand.platform.banksPerGroup = 4;
                try_accept(cand);
                cand = c;
                cand.platform.mmioReadCycles = 2;
                cand.platform.mmioWriteCycles = 1;
                try_accept(cand);
            }
        }
    }

    if (attempts_out != nullptr)
        *attempts_out = attempts;
    return c;
}

// --- Serialization ----------------------------------------------------

namespace
{

/** u64 round-trips as a decimal string: JSON numbers are doubles. */
std::string
u64Str(u64 v)
{
    return std::to_string(v);
}

const JsonValue &
member(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        fatal("fuzz repro JSON: missing key '%s'", key);
    return *v;
}

unsigned
asUnsigned(const JsonValue &obj, const char *key)
{
    const JsonValue &v = member(obj, key);
    // The negated range test also rejects NaN.
    if (!v.isNumber() || !(v.number >= 0 && v.number <= UINT_MAX) ||
        v.number != std::floor(v.number))
        fatal("fuzz repro JSON: '%s' is not an integer in [0, %u]", key,
              UINT_MAX);
    return static_cast<unsigned>(v.number);
}

bool
asBool(const JsonValue &obj, const char *key)
{
    const JsonValue &v = member(obj, key);
    if (!v.isBool())
        fatal("fuzz repro JSON: '%s' is not a bool", key);
    return v.boolean;
}

u64
asU64String(const JsonValue &obj, const char *key)
{
    const JsonValue &v = member(obj, key);
    const std::optional<u64> n =
        v.isString() ? parseDecimal(v.string) : std::nullopt;
    if (!n)
        fatal("fuzz repro JSON: '%s' is not a string-encoded u64", key);
    return *n;
}

FuzzKind
kindFromName(const std::string &name)
{
    for (int k = 0; k < 4; ++k) {
        if (name == fuzzKindName(static_cast<FuzzKind>(k)))
            return static_cast<FuzzKind>(k);
    }
    fatal("fuzz repro JSON: unknown system kind '%s'", name.c_str());
}

} // namespace

std::string
fuzzCaseToJson(const FuzzCase &c)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"seed\": \"" << u64Str(c.seed) << "\",\n";
    os << "  \"plant_violation\": "
       << (c.plantViolation ? "true" : "false") << ",\n";
    os << "  \"plant_lint_violation\": "
       << (c.plantLintViolation ? "true" : "false") << ",\n";
    os << "  \"plant_power_violation\": "
       << (c.plantPowerViolation ? "true" : "false") << ",\n";
    os << "  \"plant_lost_wake\": \"" << u64Str(c.plantLostWake)
       << "\",\n";
    os << "  \"plant_wake_violation\": \""
       << u64Str(c.plantWakeViolation) << "\",\n";
    const FuzzPlatformKnobs &p = c.platform;
    os << "  \"platform\": {\"n_slrs\": " << p.nSlrs
       << ", \"noc_fanout\": " << p.nocFanout
       << ", \"noc_crossing_latency\": " << p.nocCrossingLatency
       << ", \"noc_queue_depth\": " << p.nocQueueDepth
       << ", \"t_rcd\": " << p.tRCD << ", \"t_rp\": " << p.tRP
       << ", \"t_ras\": " << p.tRAS << ", \"t_cas\": " << p.tCAS
       << ", \"t_switch\": " << p.tSwitch
       << ", \"n_bank_groups\": " << p.nBankGroups
       << ", \"banks_per_group\": " << p.banksPerGroup
       << ", \"mmio_read_cycles\": " << p.mmioReadCycles
       << ", \"mmio_write_cycles\": " << p.mmioWriteCycles << "},\n";
    os << "  \"systems\": [";
    for (std::size_t i = 0; i < c.systems.size(); ++i) {
        const FuzzSystem &s = c.systems[i];
        if (i != 0)
            os << ",";
        os << "\n    {\"kind\": \"" << fuzzKindName(s.kind)
           << "\", \"n_cores\": " << s.nCores
           << ", \"data_bytes\": " << s.chan.dataBytes
           << ", \"burst_beats\": " << s.chan.burstBeats
           << ", \"max_inflight\": " << s.chan.maxInflight
           << ", \"use_tlp\": " << (s.chan.useTlp ? "true" : "false")
           << ", \"spad_rows\": " << s.spadRows
           << ", \"spad_latency\": " << s.spadLatency << "}";
    }
    os << "\n  ],\n";
    os << "  \"ops\": [";
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
        const FuzzOp &op = c.ops[i];
        if (i != 0)
            os << ",";
        os << "\n    {\"system\": " << op.system
           << ", \"core\": " << op.core << ", \"data_seed\": \""
           << u64Str(op.dataSeed) << "\", \"size\": " << op.size << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

FuzzCase
fuzzCaseFromJson(const std::string &text)
{
    const JsonValue root = parseJson(text);
    if (!root.isObject())
        fatal("fuzz repro JSON: top level is not an object");

    FuzzCase c;
    c.seed = asU64String(root, "seed");
    c.plantViolation = asBool(root, "plant_violation");
    // Optional, for repro files written before the composition linter,
    // the power ledger, the event kernel and the static analyzer
    // existed; when present they must still have their type.
    if (root.find("plant_lint_violation"))
        c.plantLintViolation = asBool(root, "plant_lint_violation");
    if (root.find("plant_power_violation"))
        c.plantPowerViolation = asBool(root, "plant_power_violation");
    if (root.find("plant_lost_wake"))
        c.plantLostWake = asU64String(root, "plant_lost_wake");
    if (root.find("plant_wake_violation"))
        c.plantWakeViolation = asU64String(root, "plant_wake_violation");

    const JsonValue &p = member(root, "platform");
    c.platform.nSlrs = asUnsigned(p, "n_slrs");
    c.platform.nocFanout = asUnsigned(p, "noc_fanout");
    c.platform.nocCrossingLatency = asUnsigned(p, "noc_crossing_latency");
    c.platform.nocQueueDepth = asUnsigned(p, "noc_queue_depth");
    c.platform.tRCD = asUnsigned(p, "t_rcd");
    c.platform.tRP = asUnsigned(p, "t_rp");
    c.platform.tRAS = asUnsigned(p, "t_ras");
    c.platform.tCAS = asUnsigned(p, "t_cas");
    c.platform.tSwitch = asUnsigned(p, "t_switch");
    c.platform.nBankGroups = asUnsigned(p, "n_bank_groups");
    c.platform.banksPerGroup = asUnsigned(p, "banks_per_group");
    c.platform.mmioReadCycles = asUnsigned(p, "mmio_read_cycles");
    c.platform.mmioWriteCycles = asUnsigned(p, "mmio_write_cycles");

    const JsonValue &systems = member(root, "systems");
    if (!systems.isArray())
        fatal("fuzz repro JSON: 'systems' is not an array");
    for (const JsonValue &sv : systems.array) {
        FuzzSystem s;
        s.kind = kindFromName(member(sv, "kind").string);
        s.nCores = asUnsigned(sv, "n_cores");
        s.chan.dataBytes = asUnsigned(sv, "data_bytes");
        s.chan.burstBeats = asUnsigned(sv, "burst_beats");
        s.chan.maxInflight = asUnsigned(sv, "max_inflight");
        s.chan.useTlp = asBool(sv, "use_tlp");
        s.spadRows = asUnsigned(sv, "spad_rows");
        s.spadLatency = asUnsigned(sv, "spad_latency");
        c.systems.push_back(s);
    }

    const JsonValue &ops = member(root, "ops");
    if (!ops.isArray())
        fatal("fuzz repro JSON: 'ops' is not an array");
    for (const JsonValue &ov : ops.array) {
        FuzzOp op;
        op.system = asUnsigned(ov, "system");
        op.core = asUnsigned(ov, "core");
        op.dataSeed = asU64String(ov, "data_seed");
        op.size = asUnsigned(ov, "size");
        c.ops.push_back(op);
    }
    return c;
}

void
writeReproFile(const FuzzCase &c, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open repro file '%s' for writing", path.c_str());
    os << fuzzCaseToJson(c);
    if (!os.good())
        fatal("failed writing repro file '%s'", path.c_str());
}

FuzzCase
loadReproFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open repro file '%s'", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    return fuzzCaseFromJson(buf.str());
}

} // namespace beethoven::verify
