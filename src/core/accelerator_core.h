/**
 * @file
 * AcceleratorCore — the base class users derive to implement a Core
 * (Fig. 2's `class MyAccelerator extends AcceleratorCore`).
 *
 * The core is a clocked Module. Elaboration builds the Beethoven-
 * generated surroundings (Readers, Writers, Scratchpads, command and
 * response channels) and hands them to the core through a CoreContext;
 * the core accesses them with the same accessors the paper's Chisel
 * API provides: getReaderModule / getWriterModule / getScratchpad /
 * getIntraCoreMemOut.
 *
 * Command delivery: RoCC beats arrive on the command queue; the base
 * class assembles multi-beat payloads per the System's CommandSpecs
 * and exposes completed commands through awaitCommand(), which lets an
 * idle core sleep until the next beat, or pollCommand(), which keeps
 * the core awake. Responses are sent with respond().
 */

#ifndef BEETHOVEN_CORE_ACCELERATOR_CORE_H
#define BEETHOVEN_CORE_ACCELERATOR_CORE_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cmd/command_spec.h"
#include "core/config.h"
#include "mem/reader.h"
#include "mem/scratchpad.h"
#include "mem/writer.h"
#include "sim/module.h"
#include "sim/queue.h"
#include "trace/stall.h"

namespace beethoven
{

/** Everything elaboration wires into one core instance. */
struct CoreContext
{
    Simulator *sim = nullptr;
    std::string name;
    u32 systemId = 0;
    u32 coreIdx = 0;
    const AcceleratorSystemConfig *systemConfig = nullptr;

    std::map<std::string, std::vector<Reader *>> readers;
    std::map<std::string, std::vector<Writer *>> writers;
    std::map<std::string, Scratchpad *> scratchpads;
    /** Per out-port name, per channel: queue into the target core. */
    std::map<std::string, std::vector<TimedQueue<SpadRequest> *>>
        intraOuts;

    TimedQueue<RoccCommand> *cmdIn = nullptr;
    TimedQueue<RoccResponse> *respOut = nullptr;
};

/** A fully-assembled command delivered to the core. */
struct DecodedCommand
{
    u32 commandId = 0;
    std::vector<u64> args; ///< field values in CommandSpec order
    u32 rd = 0;            ///< response routing token
    bool expectsResponse = false;
};

class AcceleratorCore : public Module
{
  public:
    explicit AcceleratorCore(const CoreContext &ctx);
    ~AcceleratorCore() override;

    u32 systemId() const { return _ctx.systemId; }
    u32 coreIdx() const { return _ctx.coreIdx; }

    /**
     * Cycles this core classified as Busy via accountCycle. Like
     * every StallAccount::count, it reads the same under both kernels
     * mid-run — the power ledger's per-core dynamic-energy source.
     */
    u64 busyCycles() const { return _stall.count(StallClass::Busy); }

  protected:
    /** Fig. 2: getReaderModule("vec_in") — returns the Reader whose
     *  cmdPort/dataPort the core drives. */
    Reader &getReaderModule(const std::string &name, unsigned idx = 0);
    Writer &getWriterModule(const std::string &name, unsigned idx = 0);
    Scratchpad &getScratchpad(const std::string &name);
    TimedQueue<SpadRequest> &getIntraCoreMemOut(const std::string &name,
                                                unsigned channel = 0);

    /**
     * Check for a completed command. Beats of multi-beat commands are
     * consumed across calls; a command is returned exactly once. A core
     * that polls stays awake every cycle.
     */
    std::optional<DecodedCommand> pollCommand();

    /**
     * pollCommand() for a core with nothing else to do. When no
     * command completes, it classifies the cycle as @p gap (unless
     * Idle) and, if no further beat is visible, sleeps with @p gap
     * until the command queue's next push. @p gap must be what the
     * core would classify on each such cycle, so both kernels publish
     * the same taxonomy.
     */
    std::optional<DecodedCommand>
    awaitCommand(StallClass gap = StallClass::Idle);

    /**
     * Send a completion/response for @p cmd. @return false when the
     * response channel is full (retry next cycle).
     */
    bool respond(const DecodedCommand &cmd, u64 data = 0);

    const CoreContext &context() const { return _ctx; }

    /**
     * Classify the current cycle for stall attribution. Cores that
     * never call it are reported as fully idle (the account backfills
     * Idle on publish), so instrumentation is opt-in per core.
     */
    void accountCycle(StallClass c) { _stall.account(c); }

  private:
    CoreContext _ctx;
    StallAccount _stall;
    std::map<u32, CommandAssembler> _assemblers;
    /** Cycle each in-flight command was delivered, keyed by rd. */
    std::map<u32, Cycle> _execStart;
};

} // namespace beethoven

#endif // BEETHOVEN_CORE_ACCELERATOR_CORE_H
