#include "core/soc.h"

#include <algorithm>

#include "analysis/analyze.h"
#include "base/log.h"
#include "core/elab_params.h"
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
          _srcQ(sim, crossingDepth(4, latency), latency),
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

    // Attribute every mapped on-chip memory to its owning core so a
    // core's static share covers its logic *and* its memory blocks —
    // together with the interconnect/shell/baseline components below,
    // the static floor reproduces watts(totalUsed + totalShell).
    std::vector<ResourceVec> mem_res(_contexts.size());
    for (const MemoryMappingRecord &m : _memoryMappings)
        mem_res[_systemBase[systemIdOf(m.system)] + m.core] +=
            m.mapping.resources;

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
            readers.insert(readers.end(), kv.second.begin(),
                           kv.second.end());
        std::vector<const Writer *> writers;
        for (const auto &kv : ctx.writers)
            writers.insert(writers.end(), kv.second.begin(),
                           kv.second.end());
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
    const std::vector<double> shares = slrCoreShares();
    const double noc_static =
        pm.dynamicResourceWatts(_interconnectResources);
    const double flit_pj = pm.nocFlitHopPj;
    for (std::size_t slr = 0; slr < shares.size(); ++slr) {
        if (shares[slr] <= 0.0)
            continue;
        const double frac = shares[slr];
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
    lint::DiagnosticReport report = analyzeGraph();
    if (report.hasErrors()) {
        throw lint::DiagnosticError("simulation-graph contract violated",
                                    std::move(report));
    }
}

lint::DiagnosticReport
AcceleratorSoc::analyzeGraph() const
{
    return analysis::analyzeGraph(_sim.graphRecord(), &_model);
}

void
AcceleratorSoc::validate()
{
    // Run the composition linter over the unbuilt config so that an
    // invalid composition reports *every* violation in one failure
    // instead of first-error-wins. Warnings alone never block a
    // build; surface them with tools/soc_lint.
    _model = lint::buildCompositionModel(_config, _platform);
    lint::DiagnosticReport report = lint::lintComposition(_model);
    if (report.hasErrors())
        throw lint::DiagnosticError("invalid composition", std::move(report));
}

void
AcceleratorSoc::placeCores()
{
    // The flat core table: system s owns cores _systemBase[s] up to
    // _systemBase[s + 1], in the order every build step visits them.
    _systemBase.assign(1, 0);
    for (const auto &sys : _config.systems)
        _systemBase.push_back(_systemBase.back() + sys.nCores);
    _coreSlr.resize(_systemBase.back());
    _contexts.resize(_systemBase.back());
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        _systemIds[sys.name] = s;
        for (u32 c = 0; c < sys.nCores; ++c) {
            const std::size_t flat = _systemBase[s] + c;
            _coreSlr[flat] = _floorplan->placeCore(
                sys.name + "_core" + std::to_string(c),
                _model.systemCoreLogic[s]);
            CoreContext &ctx = _contexts[flat];
            ctx.sim = &_sim;
            ctx.name = sys.name + ".core" + std::to_string(c);
            ctx.systemId = s;
            ctx.coreIdx = c;
            ctx.systemConfig = &sys;
        }
    }
}

void
AcceleratorSoc::mapMemory(std::size_t core, const std::string &owner,
                          const char *role, const MemoryRequest &req)
{
    const unsigned slr = _coreSlr[core];
    const CompiledMemory cm =
        _floorplan->mapMemory(slr, _model.cellLib, _model.preferredKind,
                              req.widthBits, req.depth, req.readPorts);
    _memoryMappings.push_back({_contexts[core].systemConfig->name,
                               _contexts[core].coreIdx, owner, role, slr,
                               cm});
}

void
AcceleratorSoc::addScratchpad(std::size_t core, const std::string &name,
                              const ScratchpadParams &params, Reader *init)
{
    CoreContext &ctx = _contexts[core];
    _scratchpads.push_back(std::make_unique<Scratchpad>(
        _sim, ctx.name + "." + name, params, init));
    ctx.scratchpads[name] = _scratchpads.back().get();
    mapMemory(core, name, "scratchpad",
              {params.dataWidthBits, params.nDatas, params.nPorts});
}

void
AcceleratorSoc::buildMemoryFabric()
{
    // One Reader or Writer per endpoint, in fabric endpoint order.
    struct Endpoint
    {
        std::size_t core;           ///< flat core index
        const std::string *channel; ///< channel or scratchpad name
        u32 index;                  ///< channel index within the core
        bool spadInit;              ///< a scratchpad's init Reader
        StreamParams params;
        u32 idBase = 0;
    };
    std::vector<Endpoint> reads, writes;
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (u32 c = 0; c < sys.nCores; ++c) {
            const std::size_t flat = _systemBase[s] + c;
            for (const auto &rc : sys.readChannels) {
                for (u32 k = 0; k < rc.nChannels; ++k) {
                    reads.push_back({flat, &rc.name, k, false,
                                     resolveStreamParams(rc, _platform)});
                }
            }
            for (const auto &sp : sys.scratchpads) {
                if (sp.supportsInit) {
                    reads.push_back({flat, &sp.name, 0, true,
                                     spadInitStreamParams(sp, _platform)});
                }
            }
            for (const auto &wc : sys.writeChannels) {
                for (u32 k = 0; k < wc.nChannels; ++k) {
                    writes.push_back({flat, &wc.name, k, false,
                                      resolveStreamParams(wc, _platform)});
                }
            }
        }
    }

    // --- AXI ID allocation ----------------------------------------
    // Each endpoint owns a contiguous block of IDs, and the maps route
    // R and B beats back by ID. The lint gate (BTH030) already proved
    // both ID spaces fit the bus.
    auto allocate_ids = [](std::vector<Endpoint> &eps,
                           std::vector<std::size_t> &owner) {
        for (std::size_t i = 0; i < eps.size(); ++i) {
            eps[i].idBase = static_cast<u32>(owner.size());
            owner.insert(owner.end(), eps[i].params.numIds(), i);
        }
        return static_cast<u32>(owner.size());
    };
    auto read_id_map = std::make_shared<std::vector<std::size_t>>();
    auto write_id_map = std::make_shared<std::vector<std::size_t>>();
    _readIdsInUse = allocate_ids(reads, *read_id_map);
    _writeIdsInUse = allocate_ids(writes, *write_id_map);

    const NocParams noc = _platform.nocParams();
    const unsigned mem_slr = _platform.memorySlr();
    auto slrs_of = [this](const std::vector<Endpoint> &eps) {
        std::vector<unsigned> slrs;
        slrs.reserve(eps.size());
        for (const Endpoint &ep : eps)
            slrs.push_back(_coreSlr[ep.core]);
        return slrs;
    };

    // --- Trees -----------------------------------------------------
    if (!reads.empty()) {
        const std::vector<unsigned> slrs = slrs_of(reads);
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
    if (!writes.empty()) {
        const std::vector<unsigned> slrs = slrs_of(writes);
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
    // Prefetch and stage buffers are on-chip memories, mapped through
    // the spill rule like any scratchpad.
    std::vector<Reader *> init_readers; // in the scratchpad loop's order
    for (std::size_t i = 0; i < reads.size(); ++i) {
        const Endpoint &ep = reads[i];
        CoreContext &ctx = _contexts[ep.core];
        _readers.push_back(std::make_unique<Reader>(
            _sim,
            ctx.name + "." + *ep.channel +
                (ep.spadInit ? ".init" : ".r" + std::to_string(ep.index)),
            ReaderParams{ep.params}, _bus, ep.idBase,
            &_arTree->endpointPort(i), &_rTree->endpointPort(i)));
        Reader *reader = _readers.back().get();
        mapMemory(ep.core, *ep.channel, "reader-buffer",
                  readerBufferRequest(ep.params, _bus));
        if (ep.spadInit)
            init_readers.push_back(reader);
        else
            ctx.readers[*ep.channel].push_back(reader);
    }

    for (std::size_t i = 0; i < writes.size(); ++i) {
        const Endpoint &ep = writes[i];
        CoreContext &ctx = _contexts[ep.core];
        _writers.push_back(std::make_unique<Writer>(
            _sim, ctx.name + "." + *ep.channel + ".w" +
                      std::to_string(ep.index),
            WriterParams{ep.params}, _bus, ep.idBase,
            &_wTree->endpointPort(i), &_bTree->endpointPort(i)));
        mapMemory(ep.core, *ep.channel, "writer-stage",
                  writerBufferRequest(ep.params, _bus));
        ctx.writers[*ep.channel].push_back(_writers.back().get());
    }

    // --- Scratchpads -------------------------------------------------
    std::size_t next_init = 0;
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (u32 c = 0; c < sys.nCores; ++c) {
            for (const auto &sp : sys.scratchpads) {
                addScratchpad(_systemBase[s] + c, sp.name,
                              scratchpadParams(sp),
                              sp.supportsInit ? init_readers[next_init++]
                                              : nullptr);
            }
        }
    }
}

void
AcceleratorSoc::buildCommandFabric()
{
    const NocParams noc = _platform.nocParams();
    const unsigned host_slr = _platform.hostSlr();

    _cmdTree = std::make_unique<DemuxTree<RoccCommand>>(
        _sim, "noc.cmd", _coreSlr, host_slr, noc,
        [this](const RoccCommand &cmd) {
            return _systemBase[cmd.systemId()] + cmd.coreId();
        });
    _cmdPump = std::make_unique<QueuePump<RoccCommand>>(
        _sim, "noc.cmd.pump", &_mmio->cmdOut(), &_cmdTree->rootPort());

    _respTree = std::make_unique<MuxTree<RoccResponse>>(
        _sim, "noc.resp", _coreSlr, host_slr, noc, &_mmio->respIn());

    for (std::size_t flat = 0; flat < _contexts.size(); ++flat) {
        _contexts[flat].cmdIn = &_cmdTree->endpointPort(flat);
        _contexts[flat].respOut = &_respTree->endpointPort(flat);
    }
}

void
AcceleratorSoc::wireIntraCorePorts()
{
    // Create the receive-side memories.
    for (u32 s = 0; s < _config.systems.size(); ++s) {
        const auto &sys = _config.systems[s];
        for (const auto &pin : sys.intraMemoryIns) {
            for (u32 c = 0; c < sys.nCores; ++c) {
                addScratchpad(_systemBase[s] + c, pin.name,
                              scratchpadParams(pin), nullptr);
            }
        }
    }

    // Wire the send side through bridges. A point-to-point port joins
    // source core c to target core c (BTH011 matched the core counts);
    // a broadcast port joins every source core to every target core.
    const unsigned crossing = _platform.nocParams().slrCrossingLatency;
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
            for (u32 c = 0; c < sys.nCores; ++c) {
                const std::size_t src = _systemBase[s] + c;
                const std::size_t first =
                    _systemBase[t] + (broadcast ? 0 : c);
                const std::size_t last =
                    broadcast ? _systemBase[t + 1] : first + 1;
                // Crossing latency if any target is on another SLR.
                unsigned latency = 1;
                for (std::size_t dst = first; dst < last; ++dst) {
                    if (_coreSlr[dst] != _coreSlr[src])
                        latency = std::max(latency, crossing);
                }
                for (u32 k = 0; k < pout.nChannels; ++k) {
                    auto bridge = std::make_unique<IntraCoreBridge>(
                        _sim,
                        _contexts[src].name + "." + pout.name + ".ch" +
                            std::to_string(k),
                        latency, broadcast);
                    for (std::size_t dst = first; dst < last; ++dst) {
                        bridge->addTarget(
                            &_contexts[dst]
                                 .scratchpads[pout.toMemoryPort]
                                 ->addIntraCoreWritePort());
                    }
                    _contexts[src].intraOuts[pout.name].push_back(
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
    const std::vector<double> shares = slrCoreShares();
    for (std::size_t slr = 0; slr < shares.size(); ++slr) {
        if (shares[slr] > 0.0)
            _floorplan->charge(static_cast<unsigned>(slr),
                               total * shares[slr]);
    }
}

std::vector<double>
AcceleratorSoc::slrCoreShares() const
{
    std::vector<double> shares(_floorplan->numSlrs(), 0.0);
    if (_coreSlr.empty())
        return shares;
    for (unsigned slr : _coreSlr)
        shares[slr] += 1.0;
    for (double &share : shares)
        share /= static_cast<double>(_coreSlr.size());
    return shares;
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
    beethoven_assert(idx < _config.systems[sid].nCores,
                     "core index %u out of range for system %s", idx,
                     system_name.c_str());
    return *_cores[_systemBase[sid] + idx];
}

std::vector<unsigned>
AcceleratorSoc::coreSlrs(const std::string &system_name) const
{
    const u32 sid = systemIdOf(system_name);
    return {_coreSlr.begin() + _systemBase[sid],
            _coreSlr.begin() + _systemBase[sid + 1]};
}

ResourceVec
AcceleratorSoc::coreLogicResources(const std::string &system_name) const
{
    return _model.systemCoreLogic[systemIdOf(system_name)];
}

} // namespace beethoven
