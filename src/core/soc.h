/**
 * @file
 * AcceleratorSoc — elaboration of an AcceleratorConfig onto a Platform
 * (the BeethovenBuild step of Fig. 3a).
 *
 * Elaboration performs, in order:
 *
 *  1. validation of the user configuration;
 *  2. SLR-aware placement of every core (logic estimates);
 *  3. construction of the DRAM controller and the four memory fabric
 *     trees (AR / R / W / B), with per-SLR subtrees and buffered
 *     crossings;
 *  4. construction of each core's Readers, Writers and Scratchpads,
 *     mapping every on-chip memory through the floorplanner's
 *     80 %-spill rule and recording the mapping (Table II's
 *     BRAM-vs-URAM variants);
 *  5. construction of the command/response fabric and the MMIO
 *     front-end;
 *  6. wiring of intra-core memory ports across systems;
 *  7. invocation of the user's core constructors;
 *  8. interconnect resource accounting and a final fit check.
 *
 * The resulting object owns the entire simulated design plus its
 * Simulator; the host runtime (runtime/fpga_handle.h) attaches to it.
 */

#ifndef BEETHOVEN_CORE_SOC_H
#define BEETHOVEN_CORE_SOC_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cmd/mmio.h"
#include "core/accelerator_core.h"
#include "core/config.h"
#include "dram/controller.h"
#include "floorplan/floorplan.h"
#include "lint/lint.h"
#include "noc/tree.h"
#include "platform/platform.h"

namespace beethoven
{

class PowerLedger;
struct MemoryRequest;

/** Where one logical on-chip memory ended up (Table II evidence). */
struct MemoryMappingRecord
{
    std::string system;
    u32 core = 0;
    std::string owner; ///< channel or scratchpad name
    std::string role;  ///< "scratchpad" | "reader-buffer" | "writer-stage"
    unsigned slr = 0;
    CompiledMemory mapping;
};

class AcceleratorSoc
{
  public:
    /**
     * Elaborate @p config onto @p platform. The constructor is the one
     * gate a composition passes: the linter runs first and the graph
     * analyzer last, and an error from either throws
     * lint::DiagnosticError with its full report.
     * @note the platform must outlive the SoC.
     * @throws ConfigError on invalid configurations (duplicate names,
     *         AXI ID exhaustion, designs that do not fit the device).
     */
    AcceleratorSoc(AcceleratorConfig config, const Platform &platform);
    ~AcceleratorSoc();

    AcceleratorSoc(const AcceleratorSoc &) = delete;
    AcceleratorSoc &operator=(const AcceleratorSoc &) = delete;

    Simulator &sim() { return _sim; }
    const Simulator &sim() const { return _sim; }
    FunctionalMemory &memory() { return _mem; }
    MmioCommandSystem &mmio() { return *_mmio; }
    DramController &dram() { return *_dram; }
    Floorplanner &floorplan() { return *_floorplan; }
    const Platform &platform() const { return _platform; }
    const AcceleratorConfig &config() const { return _config; }

    u32 systemIdOf(const std::string &system_name) const;
    const AcceleratorSystemConfig &
    systemConfig(const std::string &system_name) const;

    /** Total cores across all systems. */
    std::size_t numCores() const { return _cores.size(); }

    AcceleratorCore &core(const std::string &system_name, u32 idx);

    /** SLR each core of @p system_name was placed on. */
    std::vector<unsigned> coreSlrs(const std::string &system_name) const;

    const std::vector<MemoryMappingRecord> &memoryMappings() const
    {
        return _memoryMappings;
    }

    /** Beethoven-generated interconnect logic (all fabric trees). */
    const ResourceVec &interconnectResources() const
    {
        return _interconnectResources;
    }

    /** Per-core Beethoven-generated + kernel logic (no memory blocks). */
    ResourceVec coreLogicResources(const std::string &system_name) const;

    /**
     * AXI ID-space actually allocated to read / write endpoints by
     * elaboration. The live protocol invariants use these to flag any
     * bus ID outside the allocated range ("AXI-ID leak").
     */
    u32 readIdsInUse() const { return _readIdsInUse; }
    u32 writeIdsInUse() const { return _writeIdsInUse; }

    /** Total flits currently buffered in all memory-fabric NoC trees. */
    std::size_t nocOccupancy() const;

    /** Cumulative node-hops forwarded through every fabric tree. */
    double nocFlits() const;

    /**
     * Energy decomposition of this SoC (built last in elaboration and
     * registered with the simulator). Per-core, DRAM, per-SLR NoC,
     * MMIO, shell and static-baseline components whose energies sum
     * exactly to the SoC total (DESIGN.md §4f).
     */
    PowerLedger &power();

    /**
     * Run the simulation-graph analyzer (src/analysis/, DESIGN.md §5d)
     * over this SoC's elaborated graph and composition model. The
     * constructor already ran it and threw on errors; call this for
     * the warnings and notes of a SoC that elaborated.
     */
    lint::DiagnosticReport analyzeGraph() const;

  private:
    void validate();
    void placeCores();
    void buildMemoryFabric();
    void buildCommandFabric();
    void buildCores();
    void wireIntraCorePorts();
    void accountInterconnect();
    void checkFit() const;
    void registerObservers();
    void buildPowerLedger();

    /** Map one on-chip memory of flat core @p core (80 % spill rule). */
    void mapMemory(std::size_t core, const std::string &owner,
                   const char *role, const MemoryRequest &req);
    /** Build, register and map a scratchpad of flat core @p core. */
    void addScratchpad(std::size_t core, const std::string &name,
                       const ScratchpadParams &params, Reader *init);
    /** Each SLR's share of the cores; the interconnect splits by it. */
    std::vector<double> slrCoreShares() const;

    /**
     * Call @p fn(track, tree) for each memory-fabric and command-fabric
     * tree that elaboration built, in a fixed order ("noc.ar", "noc.r",
     * "noc.w", "noc.b", "noc.cmd", "noc.resp").
     */
    template <typename Fn>
    void forEachTree(Fn &&fn) const;

    /** Constructor-tail graph analysis; throws on contract errors. */
    void validateGraph();

    /**
     * The linted view of _config, built once in validate(). Declared
     * first so that it is freed last: freed before _config, it left
     * glibc trimming and re-faulting the heap on every elaboration of
     * the fig6 fit search (3x the page faults, ~1.7x the set-up time
     * in perfbench's machsuite workload).
     */
    lint::CompositionModel _model;
    AcceleratorConfig _config;
    const Platform &_platform;
    AxiConfig _bus;

    Simulator _sim;
    FunctionalMemory _mem;
    std::unique_ptr<Floorplanner> _floorplan;
    std::unique_ptr<DramController> _dram;
    std::unique_ptr<MmioCommandSystem> _mmio;

    // The flat core table (placeCores): system s owns cores
    // _systemBase[s] up to _systemBase[s + 1]; _coreSlr is per core.
    std::vector<std::size_t> _systemBase;
    std::vector<unsigned> _coreSlr;

    // Memory fabric.
    std::unique_ptr<MuxTree<ReadRequest>> _arTree;
    std::unique_ptr<DemuxTree<ReadBeat>> _rTree;
    std::unique_ptr<MuxTree<WriteFlit, WriteFlitLock>> _wTree;
    std::unique_ptr<DemuxTree<WriteResponse>> _bTree;
    std::unique_ptr<QueuePump<ReadBeat>> _rPump;
    std::unique_ptr<QueuePump<WriteResponse>> _bPump;

    // Command fabric.
    std::unique_ptr<DemuxTree<RoccCommand>> _cmdTree;
    std::unique_ptr<MuxTree<RoccResponse>> _respTree;
    std::unique_ptr<QueuePump<RoccCommand>> _cmdPump;

    /** Energy decomposition (built after checkFit; see power()). */
    std::unique_ptr<PowerLedger> _power;

    // Owned hardware, in construction order.
    std::vector<std::unique_ptr<Reader>> _readers;
    std::vector<std::unique_ptr<Writer>> _writers;
    std::vector<std::unique_ptr<Scratchpad>> _scratchpads;
    std::vector<std::unique_ptr<Module>> _bridges; ///< intra-core glue
    std::vector<std::unique_ptr<AcceleratorCore>> _cores;

    // Context under construction for each core (flattened).
    std::vector<CoreContext> _contexts;
    std::map<std::string, u32> _systemIds;

    std::vector<MemoryMappingRecord> _memoryMappings;
    ResourceVec _interconnectResources;

    // AXI ID-space allocated to the fabric's endpoints (invariants).
    u32 _readIdsInUse = 0;
    u32 _writeIdsInUse = 0;
};

} // namespace beethoven

#endif // BEETHOVEN_CORE_SOC_H
