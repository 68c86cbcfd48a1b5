#include "core/accelerator_core.h"

#include "base/log.h"
#include "trace/trace.h"

namespace beethoven
{

AcceleratorCore::AcceleratorCore(const CoreContext &ctx)
    : Module(*ctx.sim, ctx.name), _ctx(ctx), _stall(*ctx.sim, ctx.name)
{
    beethoven_assert(_ctx.systemConfig != nullptr,
                     "core %s constructed without a system config",
                     name().c_str());
    beethoven_assert(_ctx.cmdIn != nullptr,
                     "core %s constructed without a command queue",
                     name().c_str());
    declareRole("core");
    // awaitCommand() sleeps until the next command beat arrives.
    declareSleepable();
    _ctx.cmdIn->setWakeOnPush(this);
    for (u32 id = 0; id < _ctx.systemConfig->commands.size(); ++id) {
        _assemblers.emplace(
            id, CommandAssembler(_ctx.systemConfig->commands[id]));
    }
}

AcceleratorCore::~AcceleratorCore() = default;

Reader &
AcceleratorCore::getReaderModule(const std::string &name, unsigned idx)
{
    auto it = _ctx.readers.find(name);
    if (it == _ctx.readers.end())
        fatal("core %s: no read channel named '%s' (check the "
              "ReadChannelConfig list)",
              Module::name().c_str(), name.c_str());
    if (idx >= it->second.size())
        fatal("core %s: read channel '%s' has %zu channels, index %u "
              "requested",
              Module::name().c_str(), name.c_str(), it->second.size(),
              idx);
    return *it->second[idx];
}

Writer &
AcceleratorCore::getWriterModule(const std::string &name, unsigned idx)
{
    auto it = _ctx.writers.find(name);
    if (it == _ctx.writers.end())
        fatal("core %s: no write channel named '%s' (check the "
              "WriteChannelConfig list)",
              Module::name().c_str(), name.c_str());
    if (idx >= it->second.size())
        fatal("core %s: write channel '%s' has %zu channels, index %u "
              "requested",
              Module::name().c_str(), name.c_str(), it->second.size(),
              idx);
    return *it->second[idx];
}

Scratchpad &
AcceleratorCore::getScratchpad(const std::string &name)
{
    auto it = _ctx.scratchpads.find(name);
    if (it == _ctx.scratchpads.end())
        fatal("core %s: no scratchpad named '%s'",
              Module::name().c_str(), name.c_str());
    return *it->second;
}

TimedQueue<SpadRequest> &
AcceleratorCore::getIntraCoreMemOut(const std::string &name,
                                    unsigned channel)
{
    auto it = _ctx.intraOuts.find(name);
    if (it == _ctx.intraOuts.end())
        fatal("core %s: no intra-core out port named '%s'",
              Module::name().c_str(), name.c_str());
    if (channel >= it->second.size())
        fatal("core %s: intra-core out port '%s' has %zu channels",
              Module::name().c_str(), name.c_str(), it->second.size());
    return *it->second[channel];
}

std::optional<DecodedCommand>
AcceleratorCore::pollCommand()
{
    if (!_ctx.cmdIn->canPop())
        return std::nullopt;
    const RoccCommand beat = _ctx.cmdIn->pop();
    const u32 cmd_id = beat.commandId();
    auto it = _assemblers.find(cmd_id);
    if (it == _assemblers.end()) {
        warn("core %s: dropping beat for undeclared command ID %u",
             name().c_str(), cmd_id);
        return std::nullopt;
    }
    if (!it->second.feed(beat))
        return std::nullopt;
    DecodedCommand cmd;
    cmd.commandId = cmd_id;
    cmd.args = it->second.args();
    cmd.rd = it->second.rd();
    cmd.expectsResponse = it->second.expectsResponse();
    if (sim().trace() != nullptr)
        _execStart[cmd.rd] = sim().cycle();
    return cmd;
}

std::optional<DecodedCommand>
AcceleratorCore::awaitCommand(StallClass gap)
{
    std::optional<DecodedCommand> cmd = pollCommand();
    if (cmd)
        return cmd;
    if (gap != StallClass::Idle)
        accountCycle(gap);
    // A multi-beat command's next beat may already be visible; if not,
    // its push wakes the core.
    if (!_ctx.cmdIn->canPop())
        sleepWith(_stall, gap);
    return cmd;
}

bool
AcceleratorCore::respond(const DecodedCommand &cmd, u64 data)
{
    beethoven_assert(_ctx.respOut != nullptr,
                     "core %s has no response channel",
                     name().c_str());
    if (!_ctx.respOut->canPush())
        return false;
    RoccResponse resp;
    resp.systemId = _ctx.systemId;
    resp.coreId = _ctx.coreIdx;
    resp.rd = cmd.rd;
    resp.data = data;
    _ctx.respOut->push(resp);
    if (TraceSink *ts = sim().trace()) {
        auto it = _execStart.find(cmd.rd);
        if (it != _execStart.end()) {
            ts->span("cmd", name() + ".exec", name(), it->second,
                     sim().cycle(), {{"commandId", cmd.commandId}});
            _execStart.erase(it);
        }
    }
    return true;
}

} // namespace beethoven
