/**
 * @file
 * Heterogeneous multi-system accelerator with core-to-core
 * communication.
 *
 * Demonstrates two Beethoven features beyond the quickstart:
 *
 *  1. multiple Systems in one accelerator ("The developer may
 *     instantiate multiple Beethoven Systems if they desire multiple
 *     functions on their accelerator", Section II-A);
 *  2. intra-core memory ports (Appendix A's IntraCoreMemoryPortIn/
 *     Out): a Producer system streams a scaled vector directly into
 *     the Reducer system's on-chip scratchpad, so the intermediate
 *     never touches DRAM.
 *
 * Pipeline: Producer reads a vector from memory, scales each element,
 * and writes it into the Reducer's "inbox" scratchpad; the Reducer
 * command then folds the inbox into a sum and returns it in the RoCC
 * response payload (a non-empty AccelResponse).
 */

#include <cstdio>

#include "core/accelerator_core.h"
#include "core/soc.h"
#include "platform/aws_f1.h"
#include "runtime/fpga_handle.h"

using namespace beethoven;

namespace
{

class ProducerCore : public AcceleratorCore
{
  public:
    explicit ProducerCore(const CoreContext &ctx)
        : AcceleratorCore(ctx),
          _reader(getReaderModule("vec")),
          _out(getIntraCoreMemOut("to_reducer"))
    {}

    void
    tick() override
    {
        switch (_state) {
          case State::Idle: {
            auto cmd = awaitCommand();
            if (!cmd)
                return;
            _cmd = *cmd;
            _scale = static_cast<u32>(cmd->args[0]);
            _n = static_cast<u32>(cmd->args[2]);
            if (_n == 0) {
                _state = State::Respond;
                return;
            }
            if (_reader.cmdPort().canPush()) {
                _reader.cmdPort().push(
                    {_cmd.args[1], u64(_n) * sizeof(u32)});
                _row = 0;
                _state = State::Stream;
            }
            return;
          }
          case State::Stream: {
            if (_reader.dataPort().canPop() && _out.canPush()) {
                const u32 v = static_cast<u32>(
                    _reader.dataPort().pop().toUint());
                SpadRequest w;
                w.row = _row;
                w.write = true;
                w.data.resize(4);
                const u32 scaled = v * _scale;
                for (unsigned b = 0; b < 4; ++b)
                    w.data[b] = static_cast<u8>(scaled >> (8 * b));
                _out.push(std::move(w));
                if (++_row == _n)
                    _state = State::Respond;
            }
            return;
          }
          case State::Respond: {
            if (respond(_cmd))
                _state = State::Idle;
            return;
          }
        }
    }

  private:
    enum class State { Idle, Stream, Respond };
    Reader &_reader;
    TimedQueue<SpadRequest> &_out;
    State _state = State::Idle;
    DecodedCommand _cmd;
    u32 _scale = 1;
    u32 _n = 0;
    u32 _row = 0;
};

class ReducerCore : public AcceleratorCore
{
  public:
    explicit ReducerCore(const CoreContext &ctx)
        : AcceleratorCore(ctx), _inbox(getScratchpad("inbox"))
    {}

    void
    tick() override
    {
        switch (_state) {
          case State::Idle: {
            auto cmd = awaitCommand();
            if (!cmd)
                return;
            _cmd = *cmd;
            _n = static_cast<u32>(cmd->args[0]);
            _sum = 0;
            _req = 0;
            _resp = 0;
            _state = _n == 0 ? State::Respond : State::Fold;
            return;
          }
          case State::Fold: {
            if (_req < _n && _inbox.reqPort(0).canPush()) {
                SpadRequest r;
                r.row = _req++;
                _inbox.reqPort(0).push(r);
            }
            if (_resp < _n && _inbox.respPort(0).canPop()) {
                const auto data = _inbox.respPort(0).pop().data;
                u32 v = 0;
                for (unsigned b = 0; b < 4; ++b)
                    v |= u32(data[b]) << (8 * b);
                _sum += v;
                if (++_resp == _n)
                    _state = State::Respond;
            }
            return;
          }
          case State::Respond: {
            if (respond(_cmd, _sum))
                _state = State::Idle;
            return;
          }
        }
    }

  private:
    enum class State { Idle, Fold, Respond };
    Scratchpad &_inbox;
    State _state = State::Idle;
    DecodedCommand _cmd;
    u32 _n = 0;
    u64 _sum = 0;
    u32 _req = 0;
    u32 _resp = 0;
};

AcceleratorConfig
pipelineConfig()
{
    AcceleratorSystemConfig producer;
    producer.name = "Producer";
    producer.nCores = 1;
    producer.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<ProducerCore>(ctx);
    };
    producer.readChannels.push_back({"vec", 4});
    producer.intraMemoryOuts.push_back(
        {"to_reducer", "Reducer", "inbox", 1});
    producer.commands.push_back(
        CommandSpec("produce",
                    {CommandField::uint("scale", 32),
                     CommandField::address("src"),
                     CommandField::uint("n", 16)}));
    producer.kernelResources.lut = 900;
    producer.kernelResources.ff = 1100;
    producer.kernelResources.clb = 150;

    AcceleratorSystemConfig reducer;
    reducer.name = "Reducer";
    reducer.nCores = 1;
    reducer.moduleConstructor = [](const CoreContext &ctx) {
        return std::make_unique<ReducerCore>(ctx);
    };
    IntraCoreMemoryPortInConfig inbox;
    inbox.name = "inbox";
    inbox.dataWidthBits = 32;
    inbox.nDatas = 4096;
    reducer.intraMemoryIns.push_back(inbox);
    reducer.commands.push_back(CommandSpec(
        "reduce", {CommandField::uint("n", 16)}, /*resp_bits=*/32));
    reducer.kernelResources.lut = 700;
    reducer.kernelResources.ff = 800;
    reducer.kernelResources.clb = 120;

    AcceleratorConfig config;
    config.name = "PipelineAccelerator";
    config.systems.push_back(std::move(producer));
    config.systems.push_back(std::move(reducer));
    return config;
}

} // namespace

int
main()
{
    AwsF1Platform platform;
    AcceleratorSoc soc(pipelineConfig(), platform);
    RuntimeServer runtime(soc);
    fpga_handle_t handle(runtime);

    const unsigned n = 1000;
    const u32 scale = 3;
    remote_ptr vec = handle.malloc(n * sizeof(u32));
    auto *p = vec.as<u32>();
    u64 expected = 0;
    for (unsigned i = 0; i < n; ++i) {
        p[i] = i + 1;
        expected += u64(p[i]) * scale;
    }
    expected &= 0xFFFFFFFFull; // the response payload is 32 bits
    handle.copy_to_fpga(vec);

    // Stage 1: stream + scale into the Reducer's scratchpad.
    handle
        .invoke("Producer", "produce", 0,
                {scale, vec.getFpgaAddr(), n})
        .get();
    // Stage 2: fold the scratchpad; the sum returns in the response.
    const u64 sum =
        handle.invoke("Reducer", "reduce", 0, {n}).get();

    std::printf("pipeline sum of %u scaled elements = %llu "
                "(expected %llu): %s\n",
                n, static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(expected),
                sum == expected ? "PASS" : "FAIL");
    return sum == expected ? 0 : 1;
}
