#include "core/soc.h"

#include <algorithm>

#include "analysis/analyze.h"
#include "base/log.h"
#include "core/elab_params.h"
#include "lint/lint.h"
#include "mem/resource_model.h"
#include "power/power.h"
#include "sim/graph_record.h"
#include "trace/trace.h"

namespace beethoven
{

namespace
{

/**
 * Connects an IntraCoreMemoryPortOut to target cores' scratchpad write
 * ports, optionally broadcasting (Section II-A: "Beethoven also allows
 * Cores to communicate with each other").
 */
class IntraCoreBridge : public Module
{
  public:
    IntraCoreBridge(Simulator &sim, std::string name, unsigned latency,
                    bool broadcast)
        : Module(sim, std::move(name)),
          _srcQ(sim, 4, latency),
          _broadcast(broadcast)
    {
        declareRole("bridge");
        declareSleepable();
        _srcQ.setWakeOnPush(this);
    }

    TimedQueue<SpadRequest> &srcQueue() { return _srcQ; }

    void
    addTarget(TimedQueue<SpadRequest> *t)
    {
        t->setWakeOnPop(this);
        _targets.push_back(t);
    }

    void
    tick() override
    {
        if (!_srcQ.canPop()) {
            requestSleep(); // re-armed by the next srcQueue push
            return;
        }
        if (_broadcast) {
            for (auto *t : _targets) {
                if (!t->canPush()) {
                    requestSleep(); // re-armed when the target drains
                    return;
                }
            }
            const SpadRequest req = _srcQ.pop();
            for (auto *t : _targets)
                t->push(req);
        } else {
            beethoven_assert(_targets.size() == 1,
                             "point-to-point bridge with %zu targets",
                             _targets.size());
            if (_targets[0]->canPush())
                _targets[0]->push(_srcQ.pop());
            else
                requestSleep(); // re-armed when the target drains
        }
    }

  private:
    TimedQueue<SpadRequest> _srcQ;
    std::vector<TimedQueue<SpadRequest> *> _targets;
    bool _broadcast;
};

} // namespace

AcceleratorSoc::AcceleratorSoc(AcceleratorConfig config,
                               const Platform &platform)
    : _config(std::move(config)),
      _platform(platform),
      _bus(platform.memoryConfig())
{
    validate();
    _floorplan = std::make_unique<Floorplanner>(
        platform.slrs(), platform.memoryCongestionDerate());
    placeCores();

    DramController::Config dram_cfg;
    dram_cfg.axi = _bus;
    dram_cfg.timing = platform.dramTiming();
    dram_cfg.geometry = platform.dramGeometry();
    _dram = std::make_unique<DramController>(_sim, "ddr", dram_cfg, _mem);
    _mmio = std::make_unique<MmioCommandSystem>(_sim, "mmio");

    // Flattened core contexts, filled in by the build steps below.
    std::size_t total_cores = 0;
    for (const auto &sys : _config.systems)
        total_cores += sys.nCores;
    _contexts.resize(total_cores);
    {
        std::size_t flat = 0;
        for (u32 s = 0; s < _config.systems.size(); ++s) {
            _systemIds[_config.systems[s].name] = s;
            for (u32 c = 0; c < _config.systems[s].nCores; ++c, ++flat) {
                CoreContext &ctx = _contexts[flat];
                ctx.sim = &_sim;
                ctx.name = _config.systems[s].name + ".core" +
                           std::to_string(c);
                ctx.systemId = s;
                ctx.coreIdx = c;
                ctx.systemConfig = &_config.systems[s];
            }
        }
    }

    buildMemoryFabric();
    buildCommandFabric();
    wireIntraCorePorts();
    buildCores();
    registerObservers();
    accountInterconnect();
    checkFit();
    buildPowerLedger();

    // Static analysis of the elaborated simulation graph: prove the
    // wake/sleep contract (DESIGN.md §5d).
    validateGraph();
}

template <typename Fn>
void
AcceleratorSoc::forEachTree(Fn &&fn) const
{
    if (_arTree)
        fn("noc.ar", *_arTree);
    if (_rTree)
        fn("noc.r", *_rTree);
    if (_wTree)
        fn("noc.w", *_wTree);
    if (_bTree)
        fn("noc.b", *_bTree);
    if (_cmdTree)
        fn("noc.cmd", *_cmdTree);
    if (_respTree)
        fn("noc.resp", *_respTree);
}

std::size_t
AcceleratorSoc::nocOccupancy() const
{
    std::size_t occ = 0;
    forEachTree([&occ](const char *, const auto &tree) {
        occ += tree.occupancy();
    });
    return occ;
}

double
AcceleratorSoc::nocFlits() const
{
    double f = 0.0;
    forEachTree(
        [&f](const char *, const auto &tree) { f += tree.flits(); });
    return f;
}

void
AcceleratorSoc::registerObservers()
{
    _sim.addHangDumper(
        [this](std::ostream &os) { _dram->dumpInFlight(os); });
    _sim.addHangDumper([this](std::ostream &os) {
        os << "NoC link occupancy:\n";
        forEachTree([&os](const char *track, const auto &tree) {
            os << "  " << track << " links (nonzero occupancy):\n";
            bool any = false;
            tree.visitLinkOccupancy(
                [&os, &any](const std::string &link, std::size_t occ) {
                    if (occ == 0)
                        return;
                    any = true;
                    os << "    " << link << ": " << occ << "\n";
                });
            if (!any)
                os << "    (all empty)\n";
        });
    });
    // Per-link occupancy, sampled once per window while tracing.
    _sim.addCounterSampler([this](TraceSink &ts, Cycle at) {
        forEachTree([&ts, at](const char *, const auto &tree) {
            tree.visitLinkOccupancy(
                [&ts, at](const std::string &link, std::size_t occ) {
                    ts.counter("noc", link + ".occ", at,
                               static_cast<double>(occ));
                });
        });
    });
}

AcceleratorSoc::~AcceleratorSoc() = default;

PowerLedger &
AcceleratorSoc::power()
{
    return *_power;
}

void
AcceleratorSoc::buildPowerLedger()
{
    const PowerModel pm = _platform.powerModel();
    _power = std::make_unique<PowerLedger>(
        _platform.clockMHz(),
        static_cast<unsigned>(_floorplan->numSlrs()));

    // Flattened (system, core) offsets — the same order _contexts,
    // _cores and placedCores() were filled in.
    std::vector<std::size_t> sys_offsets(_config.systems.size(), 0);
    {
        std::size_t flat = 0;
        for (std::size_t s = 0; s < _config.systems.size(); ++s) {
            sys_offsets[s] = flat;
            flat += _config.systems[s].nCores;
        }
    }

    // Attribute every mapped on-chip memory to its owning core so a
    // core's static share covers its logic *and* its memory blocks —
    // together with the interconnect/shell/baseline components below,
    // the static floor reproduces watts(totalUsed + totalShell).
    std::vector<ResourceVec> mem_res(_contexts.size());
    for (const MemoryMappingRecord &m : _memoryMappings) {
        const std::size_t flat =
            sys_offsets[_systemIds.at(m.system)] + m.core;
        mem_res[flat] += m.mapping.resources;
    }

    const auto &placed = _floorplan->placedCores();
    const double data_bytes = static_cast<double>(_bus.dataBytes);
    for (std::size_t flat = 0; flat < _contexts.size(); ++flat) {
        const CoreContext &ctx = _contexts[flat];
        const AcceleratorCore *core = _cores[flat].get();
        std::vector<const Scratchpad *> spads;
        for (const auto &kv : ctx.scratchpads)
            spads.push_back(kv.second);
        std::vector<const Reader *> readers;
        for (const auto &kv : ctx.readers)
            for (const Reader *r : kv.second)
                if (r != nullptr)
                    readers.push_back(r);
        std::vector<const Writer *> writers;
        for (const auto &kv : ctx.writers)
            for (const Writer *w : kv.second)
                if (w != nullptr)
                    writers.push_back(w);
        const double core_op_pj = pm.coreOpPj;
        const double spad_pj = pm.spadAccessPj;
        // Reader/Writer stream buffers are charged at the scratchpad
        // access rate per bus-width word moved; their DRAM and NoC
        // sides are covered by the ddr / noc components.
        _power->add(
            ctx.name, placed[flat].slr,
            pm.dynamicResourceWatts(placed[flat].resources +
                                    mem_res[flat]),
            [core, spads, readers, writers, core_op_pj, spad_pj,
             data_bytes]() {
                double pj =
                    static_cast<double>(core->busyCycles()) * core_op_pj;
                for (const Scratchpad *sp : spads)
                    pj += static_cast<double>(sp->accesses()) * spad_pj;
                for (const Reader *r : readers)
                    pj += r->bytesRead() / data_bytes * spad_pj;
                for (const Writer *w : writers)
                    pj += w->bytesWritten() / data_bytes * spad_pj;
                return pj;
            });
    }

    {
        const DramController *dram = _dram.get();
        const double col_pj = pm.dramColumnPj;
        const double act_pj = pm.dramActivatePj;
        _power->add("ddr", _platform.memorySlr(), 0.0,
                    [dram, col_pj, act_pj]() {
                        return dram->columnOps() * col_pj +
                               (dram->activates() + dram->refreshes()) *
                                   act_pj;
                    });
    }

    // Interconnect, split per SLR with the same core-proportional
    // fractions accountInterconnect used for the resource charge.
    std::vector<double> cores_per_slr(_floorplan->numSlrs(), 0.0);
    double n = 0.0;
    for (const auto &per_sys : _coreSlr) {
        for (unsigned slr : per_sys) {
            cores_per_slr[slr] += 1.0;
            n += 1.0;
        }
    }
    const double noc_static =
        pm.dynamicResourceWatts(_interconnectResources);
    const double flit_pj = pm.nocFlitHopPj;
    for (std::size_t slr = 0; slr < cores_per_slr.size(); ++slr) {
        if (n <= 0.0 || cores_per_slr[slr] <= 0.0)
            continue;
        const double frac = cores_per_slr[slr] / n;
        _power->add("noc.slr" + std::to_string(slr),
                    static_cast<unsigned>(slr), noc_static * frac,
                    [this, frac, flit_pj]() {
                        return nocFlits() * flit_pj * frac;
                    });
    }

    // MMIO front-end: its logic is already inside the interconnect
    // static share, so this component is pure event energy.
    {
        const MmioCommandSystem *mmio = _mmio.get();
        const double txn_pj = pm.mmioTxnPj;
        _power->add("mmio", _platform.hostSlr(), 0.0,
                    [mmio, txn_pj]() {
                        return static_cast<double>(mmio->transactions()) *
                               txn_pj;
                    });
    }

    for (unsigned s = 0; s < _floorplan->numSlrs(); ++s) {
        const double w =
            pm.dynamicResourceWatts(_floorplan->slr(s).shellFootprint);
        if (w > 0.0)
            _power->add("shell.slr" + std::to_string(s), s, w,
                        []() { return 0.0; });
    }
    _power->add("static", _platform.hostSlr(), pm.staticWatts,
                []() { return 0.0; });

    _sim.setPowerLedger(_power.get());
}

void
AcceleratorSoc::validateGraph()
{
    if (analysis::socGraphValidationDeferred())
        return;
    const lint::DiagnosticReport report = analysis::analyzeSoc(*this);
    if (report.hasErrors()) {
        fatal("simulation-graph contract violated: %zu error(s), "
              "%zu warning(s)\n%s",
              report.errorCount(), report.warningCount(),
              report.format().c_str());
    }
}

lint::DiagnosticReport
AcceleratorSoc::analyzeGraph() const
{
    return analysis::analyzeSoc(*this);
}

void
AcceleratorSoc::validate()
{
    // Run the composition linter over the unbuilt config so that an
    // invalid composition reports *every* violation in one failure
    // instead of first-error-wins. Warnings alone never block a
    // build; surface them with tools/soc_lint.
    const lint::DiagnosticReport report =
        lint::lintComposition(_config, _platform);
    if (report.hasErrors()) {
        fatal("invalid composition: %zu error(s), %zu warning(s)\n%s",
              report.errorCount(), report.warningCount(),
              report.format().c_str());
    }
}

ResourceVec
AcceleratorSoc::estimateCoreLogic(const AcceleratorSystemConfig &sys,
                                  const AxiConfig &bus) const
{
    return beethoven::estimateCoreLogic(sys, _platform, bus);
}

void
AcceleratorSoc::placeCores()
{
    _coreSlr.resize(_config.systems.size());
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        const ResourceVec est = estimateCoreLogic(sys, _bus);
        _coreSlr[s].resize(sys.nCores);
        for (u32 c = 0; c < sys.nCores; ++c) {
            _coreSlr[s][c] = _floorplan->placeCore(
                sys.name + "_core" + std::to_string(c), est);
        }
    }
}

void
AcceleratorSoc::buildMemoryFabric()
{
    const MemoryCellLibrary lib = _platform.cellLibrary();
    const MemoryCellKind preferred = _platform.preferredMemoryKind();

    // --- Gather endpoint plans ------------------------------------
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (u32 c = 0; c < sys.nCores; ++c) {
            const unsigned slr = _coreSlr[s][c];
            for (const auto &rc : sys.readChannels) {
                for (u32 k = 0; k < rc.nChannels; ++k) {
                    MemEndpointPlan plan;
                    plan.system = sys.name;
                    plan.core = c;
                    plan.channel = rc.name;
                    plan.channelIdx = k;
                    plan.slr = slr;
                    plan.readerParams = resolveReaderParams(rc, _platform);
                    _readPlans.push_back(plan);
                }
            }
            for (const auto &sp : sys.scratchpads) {
                if (!sp.supportsInit)
                    continue;
                MemEndpointPlan plan;
                plan.system = sys.name;
                plan.core = c;
                plan.channel = sp.name;
                plan.isSpadInit = true;
                plan.slr = slr;
                plan.readerParams = spadInitReaderParams(sp, _platform);
                _readPlans.push_back(plan);
            }
            for (const auto &wc : sys.writeChannels) {
                for (u32 k = 0; k < wc.nChannels; ++k) {
                    MemEndpointPlan plan;
                    plan.isWriter = true;
                    plan.system = sys.name;
                    plan.core = c;
                    plan.channel = wc.name;
                    plan.channelIdx = k;
                    plan.slr = slr;
                    plan.writerParams = resolveWriterParams(wc, _platform);
                    _writePlans.push_back(plan);
                }
            }
        }
    }

    // --- AXI ID allocation ----------------------------------------
    auto read_id_map = std::make_shared<std::vector<std::size_t>>();
    auto write_id_map = std::make_shared<std::vector<std::size_t>>();
    u32 read_cursor = 0;
    for (std::size_t i = 0; i < _readPlans.size(); ++i) {
        auto &plan = _readPlans[i];
        plan.idBase = read_cursor;
        const u32 n = plan.readerParams.useTlp
                          ? plan.readerParams.maxInflight
                          : 1;
        read_cursor += n;
        for (u32 k = 0; k < n; ++k)
            read_id_map->push_back(i);
    }
    u32 write_cursor = 0;
    for (std::size_t i = 0; i < _writePlans.size(); ++i) {
        auto &plan = _writePlans[i];
        plan.idBase = write_cursor;
        const u32 n = plan.writerParams.useTlp
                          ? plan.writerParams.maxInflight
                          : 1;
        write_cursor += n;
        for (u32 k = 0; k < n; ++k)
            write_id_map->push_back(i);
    }
    _readIdsInUse = read_cursor;
    _writeIdsInUse = write_cursor;
    if (read_cursor > _bus.numIds() || write_cursor > _bus.numIds()) {
        fatal("design needs %u read / %u write AXI IDs but the platform "
              "provides %llu; reduce maxInflight or disable TLP on some "
              "channels",
              read_cursor, write_cursor,
              static_cast<unsigned long long>(_bus.numIds()));
    }

    if (_readPlans.empty() && _writePlans.empty())
        return; // a pure-compute accelerator: no memory fabric at all

    const NocParams noc = _platform.nocParams();
    const unsigned mem_slr = _platform.memorySlr();

    // --- Trees -----------------------------------------------------
    if (!_readPlans.empty()) {
        std::vector<unsigned> slrs;
        for (const auto &p : _readPlans)
            slrs.push_back(p.slr);
        _arTree = std::make_unique<MuxTree<ReadRequest>>(
            _sim, "noc.ar", slrs, mem_slr, noc, &_dram->arPort());
        _rTree = std::make_unique<DemuxTree<ReadBeat>>(
            _sim, "noc.r", slrs, mem_slr, noc,
            [read_id_map](const ReadBeat &b) {
                return (*read_id_map)[b.id];
            });
        _rPump = std::make_unique<QueuePump<ReadBeat>>(
            _sim, "noc.r.pump", &_dram->rPort(), &_rTree->rootPort());
    }
    if (!_writePlans.empty()) {
        std::vector<unsigned> slrs;
        for (const auto &p : _writePlans)
            slrs.push_back(p.slr);
        _wTree = std::make_unique<MuxTree<WriteFlit, WriteFlitLock>>(
            _sim, "noc.w", slrs, mem_slr, noc, &_dram->wPort());
        _bTree = std::make_unique<DemuxTree<WriteResponse>>(
            _sim, "noc.b", slrs, mem_slr, noc,
            [write_id_map](const WriteResponse &b) {
                return (*write_id_map)[b.id];
            });
        _bPump = std::make_unique<QueuePump<WriteResponse>>(
            _sim, "noc.b.pump", &_dram->bPort(), &_bTree->rootPort());
    }

    // --- Readers / Writers ------------------------------------------
    std::map<std::pair<std::size_t, std::string>, Reader *> init_readers;
    std::size_t flat_offset = 0;
    std::vector<std::size_t> sys_offsets(_config.systems.size());
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        sys_offsets[s] = flat_offset;
        flat_offset += _config.systems[s].nCores;
    }

    for (std::size_t i = 0; i < _readPlans.size(); ++i) {
        const auto &plan = _readPlans[i];
        const u32 sid = _systemIds.at(plan.system);
        const std::size_t flat = sys_offsets[sid] + plan.core;
        const std::string rname =
            _contexts[flat].name + "." + plan.channel +
            (plan.isSpadInit ? ".init"
                             : ".r" + std::to_string(plan.channelIdx));
        _readers.push_back(std::make_unique<Reader>(
            _sim, rname, plan.readerParams, _bus, plan.idBase,
            &_arTree->endpointPort(i), &_rTree->endpointPort(i)));
        Reader *reader = _readers.back().get();

        // Prefetch buffer on-chip memory (subject to the spill rule).
        const MemoryRequest mreq =
            readerBufferRequest(plan.readerParams, _bus);
        const CompiledMemory cm = _floorplan->mapMemory(
            plan.slr, lib, preferred, mreq.widthBits, mreq.depth,
            mreq.readPorts);
        _memoryMappings.push_back({plan.system, plan.core, plan.channel,
                                   "reader-buffer", plan.slr, cm});

        if (plan.isSpadInit) {
            init_readers[{flat, plan.channel}] = reader;
        } else {
            auto &vec = _contexts[flat].readers[plan.channel];
            if (vec.size() <= plan.channelIdx)
                vec.resize(plan.channelIdx + 1, nullptr);
            vec[plan.channelIdx] = reader;
        }
    }

    for (std::size_t i = 0; i < _writePlans.size(); ++i) {
        const auto &plan = _writePlans[i];
        const u32 sid = _systemIds.at(plan.system);
        const std::size_t flat = sys_offsets[sid] + plan.core;
        const std::string wname = _contexts[flat].name + "." +
                                  plan.channel + ".w" +
                                  std::to_string(plan.channelIdx);
        _writers.push_back(std::make_unique<Writer>(
            _sim, wname, plan.writerParams, _bus, plan.idBase,
            &_wTree->endpointPort(i), &_bTree->endpointPort(i)));

        const MemoryRequest mreq =
            writerBufferRequest(plan.writerParams, _bus);
        const CompiledMemory cm = _floorplan->mapMemory(
            plan.slr, lib, preferred, mreq.widthBits, mreq.depth,
            mreq.readPorts);
        _memoryMappings.push_back({plan.system, plan.core, plan.channel,
                                   "writer-stage", plan.slr, cm});

        auto &vec = _contexts[flat].writers[plan.channel];
        if (vec.size() <= plan.channelIdx)
            vec.resize(plan.channelIdx + 1, nullptr);
        vec[plan.channelIdx] = _writers.back().get();
    }

    // --- Scratchpads -------------------------------------------------
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (u32 c = 0; c < sys.nCores; ++c) {
            const std::size_t flat = sys_offsets[s] + c;
            const unsigned slr = _coreSlr[s][c];
            for (const auto &sp : sys.scratchpads) {
                ScratchpadParams p;
                p.dataWidthBits = sp.dataWidthBits;
                p.nDatas = sp.nDatas;
                p.nPorts = sp.nPorts;
                p.latency = sp.latency;
                p.supportsInit = sp.supportsInit;
                Reader *init = nullptr;
                if (sp.supportsInit)
                    init = init_readers.at({flat, sp.name});
                _scratchpads.push_back(std::make_unique<Scratchpad>(
                    _sim, _contexts[flat].name + "." + sp.name, p,
                    init));
                _contexts[flat].scratchpads[sp.name] =
                    _scratchpads.back().get();

                const CompiledMemory cm = _floorplan->mapMemory(
                    slr, lib, preferred, sp.dataWidthBits, sp.nDatas,
                    sp.nPorts);
                _memoryMappings.push_back(
                    {sys.name, c, sp.name, "scratchpad", slr, cm});
            }
        }
    }
}

void
AcceleratorSoc::buildCommandFabric()
{
    std::vector<unsigned> core_slrs;
    auto sys_offsets = std::make_shared<std::vector<std::size_t>>();
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        sys_offsets->push_back(core_slrs.size());
        for (u32 c = 0; c < _config.systems[s].nCores; ++c)
            core_slrs.push_back(_coreSlr[s][c]);
    }

    const NocParams noc = _platform.nocParams();
    const unsigned host_slr = _platform.hostSlr();

    _cmdTree = std::make_unique<DemuxTree<RoccCommand>>(
        _sim, "noc.cmd", core_slrs, host_slr, noc,
        [sys_offsets](const RoccCommand &cmd) {
            return (*sys_offsets)[cmd.systemId()] + cmd.coreId();
        });
    _cmdPump = std::make_unique<QueuePump<RoccCommand>>(
        _sim, "noc.cmd.pump", &_mmio->cmdOut(), &_cmdTree->rootPort());

    _respTree = std::make_unique<MuxTree<RoccResponse>>(
        _sim, "noc.resp", core_slrs, host_slr, noc, &_mmio->respIn());

    for (std::size_t flat = 0; flat < _contexts.size(); ++flat) {
        _contexts[flat].cmdIn = &_cmdTree->endpointPort(flat);
        _contexts[flat].respOut = &_respTree->endpointPort(flat);
    }
}

void
AcceleratorSoc::wireIntraCorePorts()
{
    const MemoryCellLibrary lib = _platform.cellLibrary();
    const MemoryCellKind preferred = _platform.preferredMemoryKind();

    std::vector<std::size_t> sys_offsets(_config.systems.size());
    std::size_t flat_offset = 0;
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        sys_offsets[s] = flat_offset;
        flat_offset += _config.systems[s].nCores;
    }

    // Create the receive-side memories.
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (const auto &pin : sys.intraMemoryIns) {
            for (u32 c = 0; c < sys.nCores; ++c) {
                const std::size_t flat = sys_offsets[s] + c;
                ScratchpadParams p;
                p.dataWidthBits = pin.dataWidthBits;
                p.nDatas = pin.nDatas;
                p.nPorts = std::max(1u, pin.nChannels);
                p.latency = pin.latency;
                p.supportsInit = false;
                _scratchpads.push_back(std::make_unique<Scratchpad>(
                    _sim, _contexts[flat].name + "." + pin.name, p,
                    nullptr));
                _contexts[flat].scratchpads[pin.name] =
                    _scratchpads.back().get();

                const CompiledMemory cm = _floorplan->mapMemory(
                    _coreSlr[s][c], lib, preferred, pin.dataWidthBits,
                    pin.nDatas, p.nPorts);
                _memoryMappings.push_back({sys.name, c, pin.name,
                                           "scratchpad", _coreSlr[s][c],
                                           cm});
            }
        }
    }

    // Wire the send side through bridges.
    const NocParams noc = _platform.nocParams();
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (const auto &pout : sys.intraMemoryOuts) {
            const u32 t = _systemIds.at(pout.toSystem);
            const auto &tsys = _config.systems[t];
            const auto pin_it = std::find_if(
                tsys.intraMemoryIns.begin(), tsys.intraMemoryIns.end(),
                [&](const auto &pin) {
                    return pin.name == pout.toMemoryPort;
                });
            const bool broadcast =
                pin_it->commDeg == CommunicationDegree::Broadcast;
            if (!broadcast && sys.nCores != tsys.nCores) {
                fatal("point-to-point intra-core port '%s': source "
                      "system %s has %u cores but target %s has %u",
                      pout.name.c_str(), sys.name.c_str(), sys.nCores,
                      tsys.name.c_str(), tsys.nCores);
            }
            for (u32 c = 0; c < sys.nCores; ++c) {
                const std::size_t src_flat = sys_offsets[s] + c;
                for (u32 k = 0; k < pout.nChannels; ++k) {
                    // Crossing latency if any target is on another SLR.
                    unsigned latency = 1;
                    auto consider = [&](u32 tc) {
                        if (_coreSlr[t][tc] != _coreSlr[s][c])
                            latency = std::max(
                                latency, noc.slrCrossingLatency);
                    };
                    if (broadcast) {
                        for (u32 tc = 0; tc < tsys.nCores; ++tc)
                            consider(tc);
                    } else {
                        consider(c);
                    }
                    auto bridge = std::make_unique<IntraCoreBridge>(
                        _sim,
                        _contexts[src_flat].name + "." + pout.name +
                            ".ch" + std::to_string(k),
                        latency, broadcast);
                    if (broadcast) {
                        for (u32 tc = 0; tc < tsys.nCores; ++tc) {
                            const std::size_t dst = sys_offsets[t] + tc;
                            bridge->addTarget(
                                &_contexts[dst]
                                     .scratchpads[pout.toMemoryPort]
                                     ->addIntraCoreWritePort());
                        }
                    } else {
                        const std::size_t dst = sys_offsets[t] + c;
                        bridge->addTarget(
                            &_contexts[dst]
                                 .scratchpads[pout.toMemoryPort]
                                 ->addIntraCoreWritePort());
                    }
                    _contexts[src_flat].intraOuts[pout.name].push_back(
                        &bridge->srcQueue());
                    _bridges.push_back(std::move(bridge));
                }
            }
        }
    }
}

void
AcceleratorSoc::buildCores()
{
    for (std::size_t flat = 0; flat < _contexts.size(); ++flat) {
        const CoreContext &ctx = _contexts[flat];
        _cores.push_back(ctx.systemConfig->moduleConstructor(ctx));
        beethoven_assert(_cores.back() != nullptr,
                         "module constructor for %s returned null",
                         ctx.name.c_str());
    }
}

void
AcceleratorSoc::accountInterconnect()
{
    const unsigned fanout = _platform.nocParams().fanout;
    ResourceVec total;
    if (_arTree)
        total += treeResources(_arTree->stats(), 8, fanout);
    if (_rTree)
        total += treeResources(_rTree->stats(), _bus.dataBytes, fanout);
    if (_wTree)
        total += treeResources(_wTree->stats(), _bus.dataBytes, fanout);
    if (_bTree)
        total += treeResources(_bTree->stats(), 2, fanout);
    total += treeResources(_cmdTree->stats(), 20, fanout);
    total += treeResources(_respTree->stats(), 12, fanout);
    total += mmioFrontendResources();
    _interconnectResources = total;

    // Charge interconnect per SLR in proportion to the cores it serves.
    std::vector<double> cores_per_slr(_floorplan->numSlrs(), 0.0);
    double n = 0;
    for (const auto &per_sys : _coreSlr) {
        for (unsigned slr : per_sys) {
            cores_per_slr[slr] += 1.0;
            n += 1.0;
        }
    }
    for (std::size_t slr = 0; slr < cores_per_slr.size(); ++slr) {
        if (n > 0 && cores_per_slr[slr] > 0)
            _floorplan->charge(static_cast<unsigned>(slr),
                               total * (cores_per_slr[slr] / n));
    }
}

void
AcceleratorSoc::checkFit() const
{
    for (unsigned s = 0; s < _floorplan->numSlrs(); ++s) {
        const ResourceVec &used = _floorplan->used(s);
        const ResourceVec avail = _floorplan->slr(s).available();
        if (!used.fitsWithin(avail)) {
            fatal("design does not fit on %s: used {clb=%.0f lut=%.0f "
                  "bram=%.1f uram=%.0f} of {clb=%.0f lut=%.0f "
                  "bram=%.0f uram=%.0f}",
                  _floorplan->slr(s).name.c_str(), used.clb, used.lut,
                  used.bram, used.uram, avail.clb, avail.lut, avail.bram,
                  avail.uram);
        }
    }
}

u32
AcceleratorSoc::systemIdOf(const std::string &system_name) const
{
    auto it = _systemIds.find(system_name);
    if (it == _systemIds.end())
        fatal("unknown system '%s'", system_name.c_str());
    return it->second;
}

const AcceleratorSystemConfig &
AcceleratorSoc::systemConfig(const std::string &system_name) const
{
    return _config.systems[systemIdOf(system_name)];
}

AcceleratorCore &
AcceleratorSoc::core(const std::string &system_name, u32 idx)
{
    const u32 sid = systemIdOf(system_name);
    std::size_t flat = 0;
    for (u32 s = 0; s < sid; ++s)
        flat += _config.systems[s].nCores;
    beethoven_assert(idx < _config.systems[sid].nCores,
                     "core index %u out of range for system %s", idx,
                     system_name.c_str());
    return *_cores[flat + idx];
}

std::vector<unsigned>
AcceleratorSoc::coreSlrs(const std::string &system_name) const
{
    return _coreSlr[systemIdOf(system_name)];
}

ResourceVec
AcceleratorSoc::coreLogicResources(const std::string &system_name) const
{
    return estimateCoreLogic(systemConfig(system_name), _bus);
}

} // namespace beethoven
