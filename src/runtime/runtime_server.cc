#include "runtime/runtime_server.h"

#include "base/log.h"

namespace beethoven
{

RuntimeServer::RuntimeServer(AcceleratorSoc &soc) : _soc(soc)
{
    _hostIf = std::make_unique<HostInterface>(
        soc.sim(), "host", soc.mmio(), soc.memory(), soc.platform());
    // Reserve address 0 so user code can treat 0 as "null".
    const Addr base = 4096;
    _allocator = std::make_unique<DeviceAllocator>(
        base, soc.platform().memoryCapacityBytes() - base);
}

u32
RuntimeServer::allocateRd(u32 system_id, u32 core_id)
{
    u32 &counter = _rdCounters[{system_id, core_id}];
    const u32 rd = counter;
    counter = (counter + 1) % 32;
    return rd;
}

void
RuntimeServer::drainHost()
{
    const bool ok = _soc.sim().runUntil(
        [this] { return _hostIf->idle(); }, 100'000'000ULL);
    if (!ok)
        fatal("host interface failed to drain (modeling bug?)");
}

void
RuntimeServer::sendCommand(const CommandSpec &spec, u32 system_id,
                           u32 core_id, u32 command_id, u32 rd,
                           const std::vector<u64> &values)
{
    const auto beats =
        spec.pack(system_id, core_id, command_id, rd, values);
    for (const RoccCommand &beat : beats) {
        // Poll CMD_READY until the front-end can take a beat.
        for (;;) {
            bool got = false;
            u32 ready = 0;
            HostOp op;
            op.kind = HostOp::Kind::Read32;
            op.offset = mmio_regs::cmdReady;
            op.done = [&](u32 v) {
                ready = v;
                got = true;
            };
            _hostIf->enqueue(std::move(op));
            const bool ok = _soc.sim().runUntil([&] { return got; },
                                                100'000'000ULL);
            if (!ok)
                fatal("timeout polling CMD_READY");
            if (ready)
                break;
            // A full response path stops the cores taking commands, so
            // drain a response before waiting again.
            pollResponses();
            _soc.sim().run(kPollInterval);
        }
        // Five CMD_BITS writes + CMD_VALID.
        const u32 words[5] = {
            beat.inst,
            static_cast<u32>(beat.rs1),
            static_cast<u32>(beat.rs1 >> 32),
            static_cast<u32>(beat.rs2),
            static_cast<u32>(beat.rs2 >> 32),
        };
        for (u32 w : words) {
            HostOp op;
            op.kind = HostOp::Kind::Write32;
            op.offset = mmio_regs::cmdBits;
            op.value = w;
            _hostIf->enqueue(std::move(op));
        }
        HostOp submit;
        submit.kind = HostOp::Kind::Write32;
        submit.offset = mmio_regs::cmdValid;
        submit.value = 1;
        _hostIf->enqueue(std::move(submit));
        drainHost();
    }
}

void
RuntimeServer::pollResponses()
{
    bool got = false;
    u32 valid = 0;
    HostOp probe;
    probe.kind = HostOp::Kind::Read32;
    probe.offset = mmio_regs::respValid;
    probe.done = [&](u32 v) {
        valid = v;
        got = true;
    };
    _hostIf->enqueue(std::move(probe));
    if (!_soc.sim().runUntil([&] { return got; }, 100'000'000ULL))
        fatal("timeout polling RESP_VALID");
    if (!valid)
        return;

    u32 words[3] = {0, 0, 0};
    unsigned received = 0;
    for (unsigned i = 0; i < 3; ++i) {
        HostOp rd;
        rd.kind = HostOp::Kind::Read32;
        rd.offset = mmio_regs::respBits;
        rd.done = [&words, &received, i](u32 v) {
            words[i] = v;
            ++received;
        };
        _hostIf->enqueue(std::move(rd));
    }
    HostOp ack;
    ack.kind = HostOp::Kind::Write32;
    ack.offset = mmio_regs::respReady;
    ack.value = 1;
    _hostIf->enqueue(std::move(ack));
    drainHost();
    beethoven_assert(received == 3, "response drain incomplete");

    RespKey key;
    key.rd = words[2] & 0x1F;
    key.coreId = (words[2] >> 5) & 0x3FF;
    key.systemId = words[2] >> 16;
    const u64 data = u64(words[0]) | (u64(words[1]) << 32);
    _arrived[key] = data;
}

std::optional<u64>
RuntimeServer::tryCollect(const RespKey &key)
{
    auto it = _arrived.find(key);
    if (it == _arrived.end()) {
        pollResponses();
        it = _arrived.find(key);
        if (it == _arrived.end())
            return std::nullopt;
    }
    const u64 v = it->second;
    _arrived.erase(it);
    return v;
}

u64
RuntimeServer::waitFor(const RespKey &key, Cycle timeout)
{
    const Cycle start = _soc.sim().cycle();
    for (;;) {
        if (auto v = tryCollect(key))
            return *v;
        if (_soc.sim().cycle() - start > timeout) {
            fatal("timed out after %llu cycles waiting for response "
                  "(system %u core %u rd %u) — accelerator hung?",
                  static_cast<unsigned long long>(timeout), key.systemId,
                  key.coreId, key.rd);
        }
        _soc.sim().run(kPollInterval);
    }
}

} // namespace beethoven
