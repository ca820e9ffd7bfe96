/**
 * @file
 * Tests for the captured SCBC program: the recorder's program replays
 * the exact call sequence it captured (including randomized sequences
 * that force wide operands and sentinel handles, and a crafted image
 * with explicit result ids), replayed cycles and breakdowns equal
 * direct execution for every GPM app, FSM and tensor kernel on both
 * timing substrates, the SCBC image is byte-stable and validated on
 * load, and Machine::compare agrees with direct runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <vector>

#include "api/jobspec.hh"
#include "api/machine.hh"
#include "api/pipeline.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/bytecode.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "trace/wire.hh"

using namespace sc;
using backend::BackendStream;

namespace {

trace::BytecodeProgram
captureGpm(const graph::CsrGraph &g, gpm::GpmApp app)
{
    trace::TraceRecorder recorder;
    gpm::PlanExecutor executor(g, recorder);
    executor.runMany(gpm::gpmAppPlans(app));
    return recorder.takeTrace();
}

/**
 * Test-only ExecBackend that logs every call it receives, operands
 * and span contents included, one line per call. Handles it returns
 * start at 1000, so a replay that forgot to map program handles onto
 * the backend's own would log different operands.
 */
class CallLog final : public backend::ExecBackend
{
  public:
    std::vector<std::string> calls;

    std::string name() const override { return "call-log"; }
    void
    begin() override
    {
        calls.clear();
        next_ = 1000;
    }
    Cycles finish() override { return 0; }
    sim::CycleBreakdown breakdown() const override { return {}; }
    Caps
    caps() const override
    {
        Caps c;
        c.nested = true;
        return c;
    }

    void scalarOps(std::uint64_t n) override { log("ops", n); }
    void
    scalarBranch(std::uint64_t pc, bool taken) override
    {
        log("branch", pc, taken);
    }
    void scalarLoad(Addr addr) override { log("load", addr); }
    BackendStream
    streamLoad(Addr key_addr, std::uint32_t length, unsigned priority,
               streams::KeySpan keys) override
    {
        return logCreate("streamLoad", key_addr, length, priority,
                         keys);
    }
    BackendStream
    streamLoadKv(Addr key_addr, Addr val_addr, std::uint32_t length,
                 unsigned priority, streams::KeySpan keys) override
    {
        return logCreate("streamLoadKv", key_addr, val_addr, length,
                         priority, keys);
    }
    void streamFree(BackendStream h) override { log("free", h); }
    BackendStream
    setOp(streams::SetOpKind kind, BackendStream a, BackendStream b,
          streams::KeySpan ak, streams::KeySpan bk, Key bound,
          streams::KeySpan result, Addr out_addr) override
    {
        return logCreate("setOp", static_cast<int>(kind), a, b, ak, bk,
                         bound, result, out_addr);
    }
    void
    setOpCount(streams::SetOpKind kind, BackendStream a, BackendStream b,
               streams::KeySpan ak, streams::KeySpan bk, Key bound,
               std::uint64_t count) override
    {
        log("setOpCount", static_cast<int>(kind), a, b, ak, bk, bound,
            count);
    }
    void
    valueIntersect(BackendStream a, BackendStream b, streams::KeySpan ak,
                   streams::KeySpan bk, Addr a_val, Addr b_val,
                   std::span<const std::uint32_t> match_a,
                   std::span<const std::uint32_t> match_b) override
    {
        log("valueIntersect", a, b, ak, bk, a_val, b_val, match_a,
            match_b);
    }
    void
    denseValueIntersect(BackendStream a, BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Addr a_val, Addr b_val,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override
    {
        log("denseValueIntersect", a, b, ak, bk, a_val, b_val, match_a,
            match_b);
    }
    BackendStream
    valueMerge(BackendStream a, BackendStream b, streams::KeySpan ak,
               streams::KeySpan bk, Addr a_val, Addr b_val,
               std::uint64_t result_len, Addr out_addr) override
    {
        return logCreate("valueMerge", a, b, ak, bk, a_val, b_val,
                         result_len, out_addr);
    }
    void
    nestedIntersect(BackendStream s, streams::KeySpan s_keys,
                    const std::vector<backend::NestedItem> &elems) override
    {
        std::ostringstream os;
        os << "nested " << s << ' ' << str(s_keys);
        for (const backend::NestedItem &e : elems)
            os << " {" << e.infoAddr << ' ' << e.keyAddr << ' '
               << str(e.nested) << ' ' << e.bound << ' ' << e.count
               << '}';
        calls.push_back(os.str());
    }
    void consumeStream(BackendStream h) override { log("consume", h); }
    void
    iterateStream(BackendStream h, std::uint64_t n, unsigned ops) override
    {
        log("iterate", h, n, ops);
    }

  private:
    static std::string
    str(std::span<const Key> keys)
    {
        std::string out = "[";
        for (const Key k : keys)
            out += std::to_string(k) + ",";
        return out + "]";
    }
    template <typename T>
    static std::string
    str(const T &value)
    {
        return std::to_string(value);
    }
    template <typename... Args>
    void
    log(const char *what, const Args &...args)
    {
        std::string line = what;
        ((line += ' ' + str(args)), ...);
        calls.push_back(std::move(line));
    }
    template <typename... Args>
    BackendStream
    logCreate(const char *what, const Args &...args)
    {
        log(what, args...);
        calls.back() += " -> " + std::to_string(next_);
        return next_++;
    }

    BackendStream next_ = 1000;
};

/** The calls a replay of `bc` issues. */
std::vector<std::string>
replayedCalls(const trace::BytecodeProgram &bc)
{
    CallLog log;
    trace::replayCompiled(bc, log, /*verify=*/false);
    return log.calls;
}

/** Options for direct execution through Machine::run: no store and
 *  no verification, so run() calls executeOn on the timing backend. */
api::RunOptions
directOptions()
{
    api::RunOptions options;
    options.artifactCache = false;
    options.verify = false;
    return options;
}

/** Replaying `bc` on each timing substrate gives the cycles and the
 *  4-class breakdown of direct execution of `req` (which must carry
 *  directOptions()). */
void
expectReplayMatchesDirect(const trace::BytecodeProgram &bc,
                          const api::RunRequest &req,
                          const std::string &label)
{
    const arch::SparseCoreConfig config;
    const api::Machine machine(config);
    for (const api::Substrate sub :
         {api::Substrate::Cpu, api::Substrate::SparseCore}) {
        const api::RunResult direct = machine.run(req, sub);
        ASSERT_TRUE(direct.trace.replayMode.empty())
            << label << ": expected a direct run";
        const auto be = api::makeBackend(sub, config);
        const trace::ReplayResult replayed =
            trace::replayCompiled(bc, *be, /*verify=*/false);
        EXPECT_EQ(direct.cycles, replayed.cycles)
            << label << " on " << api::substrateName(sub);
        EXPECT_EQ(direct.breakdown.cycles, replayed.breakdown.cycles)
            << label << " on " << api::substrateName(sub);
    }
}

graph::LabeledGraph
labeledTestGraph(std::uint64_t seed)
{
    auto base = test::randomTestGraph(70, 420, seed);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    return graph::LabeledGraph(std::move(base), labels);
}

} // namespace

// ---------------- capture/replay round trip ----------------

TEST(BytecodeRoundTrip, CapturedGpmTracesDecodeExactly)
{
    // Replaying a captured program issues exactly the calls direct
    // execution issues, operand for operand.
    const auto g = test::randomTestGraph(80, 600, 91);
    for (const gpm::GpmApp app :
         {gpm::GpmApp::T, gpm::GpmApp::TC, gpm::GpmApp::C4}) {
        const trace::BytecodeProgram bc = captureGpm(g, app);
        ASSERT_GT(bc.numEvents(), 0u);
        EXPECT_LE(bc.numInstructions(), bc.numEvents());

        CallLog direct;
        direct.begin();
        gpm::PlanExecutor executor(g, direct);
        executor.runMany(gpm::gpmAppPlans(app));
        EXPECT_EQ(replayedCalls(bc), direct.calls)
            << gpm::gpmAppName(app);
    }
}

TEST(BytecodeRoundTrip, FusionShrinksScalarRuns)
{
    // Identical consecutive scalarOps calls fuse into one run
    // instruction, and the replay re-issues every call.
    trace::TraceRecorder recorder;
    for (int i = 0; i < 100; ++i)
        recorder.scalarOps(3);
    recorder.scalarOps(4);
    for (int i = 0; i < 50; ++i)
        recorder.scalarOps(3);
    const trace::BytecodeProgram bc = recorder.takeTrace();

    EXPECT_EQ(bc.numInstructions(), 3u);
    EXPECT_EQ(bc.numEvents(), 151u);
    // Unfused, every call would take a header and an operand word.
    EXPECT_LT(bc.codeBytes(), bc.numEvents() * 2 * sizeof(trace::Word));
    std::vector<std::string> want(100, "ops 3");
    want.push_back("ops 4");
    want.insert(want.end(), 50, "ops 3");
    EXPECT_EQ(replayedCalls(bc), want);
}

TEST(BytecodeRoundTrip, RandomizedRecorderTraces)
{
    // Property test: one random call sequence goes both into the
    // recorder and into a call log; replaying the program onto a
    // second log must reproduce the first exactly. Large 64-bit
    // addresses force the wide operand form; the generator also
    // exercises sentinel handles and every hook.
    std::mt19937_64 rng(20260807);
    std::vector<Key> pool(256);
    for (std::size_t i = 0; i < pool.size(); ++i)
        pool[i] = static_cast<Key>(rng());

    auto keys = [&](std::size_t max_len) -> streams::KeySpan {
        const std::size_t len = rng() % (max_len + 1);
        const std::size_t off = rng() % (pool.size() - len);
        return {pool.data() + off, len};
    };
    auto addr = [&]() -> Addr {
        // Mix small and full-64-bit addresses so both narrow and
        // wide delta encodings appear.
        return (rng() & 1) ? static_cast<Addr>(rng() & 0xffff)
                           : static_cast<Addr>(rng());
    };

    trace::TraceRecorder recorder;
    CallLog log;
    log.begin();
    // Each live stream as (recorder handle, log handle).
    using Handles = std::pair<BackendStream, BackendStream>;
    std::vector<Handles> live;
    auto pick = [&]() -> Handles {
        if (live.empty() || rng() % 8 == 0)
            return {backend::noStream, backend::noStream};
        return live[rng() % live.size()];
    };
    // Feed one call to both backends.
    auto both = [&](auto &&call) { call(recorder, 0); call(log, 1); };
    auto create = [&](auto &&call) {
        live.emplace_back(call(recorder, 0), call(log, 1));
    };
    auto h = [](const Handles &hs, int side) {
        return side == 0 ? hs.first : hs.second;
    };

    for (int step = 0; step < 4000; ++step) {
        switch (rng() % 12) {
        case 0: {
            const std::uint64_t n =
                (rng() & 1) ? rng() % 64 : rng(); // forces wide n
            both([&](backend::ExecBackend &be, int) { be.scalarOps(n); });
            break;
        }
        case 1: {
            const Addr pc = addr();
            const bool taken = rng() & 1;
            both([&](backend::ExecBackend &be, int) {
                be.scalarBranch(pc, taken);
            });
            break;
        }
        case 2: {
            const Addr a = addr();
            both([&](backend::ExecBackend &be, int) { be.scalarLoad(a); });
            break;
        }
        case 3: {
            const Addr a = addr();
            const auto len = static_cast<std::uint32_t>(rng());
            const unsigned prio = rng() % 4;
            const auto k = keys(32);
            create([&](backend::ExecBackend &be, int) {
                return be.streamLoad(a, len, prio, k);
            });
            break;
        }
        case 4: {
            const Addr ka = addr(), va = addr();
            const auto len = static_cast<std::uint32_t>(rng());
            const unsigned prio = rng() % 4;
            const auto k = keys(32);
            create([&](backend::ExecBackend &be, int) {
                return be.streamLoadKv(ka, va, len, prio, k);
            });
            break;
        }
        case 5:
            if (!live.empty()) {
                const std::size_t i = rng() % live.size();
                const Handles hs = live[i];
                both([&](backend::ExecBackend &be, int side) {
                    be.streamFree(h(hs, side));
                });
                live.erase(live.begin() + i);
            }
            break;
        case 6: {
            const auto kind = static_cast<streams::SetOpKind>(rng() % 3);
            const Handles a = pick(), b = pick();
            const auto ak = keys(32), bk = keys(32);
            const Key bound =
                (rng() & 1) ? noBound : static_cast<Key>(rng());
            const auto res = keys(16);
            const Addr out = addr();
            create([&](backend::ExecBackend &be, int side) {
                return be.setOp(kind, h(a, side), h(b, side), ak, bk,
                                bound, res, out);
            });
            break;
        }
        case 7: {
            const auto kind = static_cast<streams::SetOpKind>(rng() % 3);
            const Handles a = pick(), b = pick();
            const auto ak = keys(32), bk = keys(32);
            const Key bound =
                (rng() & 1) ? noBound : static_cast<Key>(rng());
            const std::uint64_t count = rng();
            both([&](backend::ExecBackend &be, int side) {
                be.setOpCount(kind, h(a, side), h(b, side), ak, bk,
                              bound, count);
            });
            break;
        }
        case 8: {
            const Handles a = pick(), b = pick();
            const auto ak = keys(32), bk = keys(32);
            const Addr av = addr(), bv = addr();
            const auto ma = keys(8), mb = keys(8);
            const bool dense = rng() & 1;
            both([&](backend::ExecBackend &be, int side) {
                if (dense)
                    be.denseValueIntersect(h(a, side), h(b, side), ak,
                                           bk, av, bv, ma, mb);
                else
                    be.valueIntersect(h(a, side), h(b, side), ak, bk,
                                      av, bv, ma, mb);
            });
            break;
        }
        case 9: {
            const Handles a = pick(), b = pick();
            const auto ak = keys(32), bk = keys(32);
            const Addr av = addr(), bv = addr();
            const std::uint64_t n = rng();
            const Addr out = addr();
            create([&](backend::ExecBackend &be, int side) {
                return be.valueMerge(h(a, side), h(b, side), ak, bk, av,
                                     bv, n, out);
            });
            break;
        }
        case 10: {
            std::vector<backend::NestedItem> elems(1 + rng() % 4);
            for (auto &e : elems) {
                e.infoAddr = addr();
                e.keyAddr = addr();
                e.nested = keys(16);
                e.bound =
                    (rng() & 1) ? noBound : static_cast<Key>(rng());
                e.count = rng() % 1000;
            }
            const Handles s = pick();
            const auto sk = keys(32);
            both([&](backend::ExecBackend &be, int side) {
                be.nestedIntersect(h(s, side), sk, elems);
            });
            break;
        }
        case 11: {
            const Handles s = pick();
            if (rng() & 1) {
                both([&](backend::ExecBackend &be, int side) {
                    be.consumeStream(h(s, side));
                });
            } else {
                const std::uint64_t n = rng();
                const unsigned ops = rng() % 8;
                both([&](backend::ExecBackend &be, int side) {
                    be.iterateStream(h(s, side), n, ops);
                });
            }
            break;
        }
        }
    }
    const trace::BytecodeProgram bc = recorder.takeTrace();
    ASSERT_GT(bc.numEvents(), 1000u);
    EXPECT_EQ(bc.numEvents(), log.calls.size());
    EXPECT_EQ(replayedCalls(bc), log.calls);
    // The recorder's program sizes the handle map exactly.
    const auto created = std::count_if(
        log.calls.begin(), log.calls.end(), [](const std::string &c) {
            return c.find(" -> ") != std::string::npos;
        });
    EXPECT_EQ(bc.handleCount(),
              static_cast<trace::TraceStream>(created));
}

TEST(BytecodeRoundTrip, HandBuiltExplicitResultIds)
{
    // The recorder always emits implicit creation-order results, but
    // a v1 image may name its results explicitly. A crafted image
    // loading stream 7 and defining stream 2 from it must load and
    // replay with program handles 7 and 2 mapped onto the backend's
    // own creation-order handles.
    using trace::Op;
    const std::vector<Key> arena = {1, 2, 3, 4};
    const auto hdr = [](Op op, unsigned aux = 0) {
        return static_cast<trace::Word>(op) |
               (trace::Word{aux} << trace::auxShift);
    };
    const std::vector<trace::Word> code = {
        // streamLoad @0x1234, len 4, keys [0, +4), result 7
        hdr(Op::StreamLoad) | trace::flagExplicitResult,
        static_cast<trace::Word>(trace::zigzagEncode(0x1234)), 4, 0, 4, 7,
        // setOp intersect(7, none) @0x2000, keys [0, +4) x [], result 2
        hdr(Op::SetOp,
            static_cast<unsigned>(streams::SetOpKind::Intersect)) |
            trace::flagExplicitResult,
        7, trace::noTraceStream, 0, 4, 0, 0, noBound, 0, 0,
        static_cast<trace::Word>(trace::zigzagEncode(0x2000 - 0x1234)),
        2,
        // streamFree(2)
        hdr(Op::StreamFree), 2};

    std::string image = "SCBC";
    trace::wire::put<std::uint32_t>(image, trace::bytecodeFormatVersion);
    trace::wire::put<std::uint32_t>(image, 8); // handleCount
    trace::wire::put<std::uint64_t>(image, 3); // instructions
    trace::wire::put<std::uint64_t>(image, 3); // events
    trace::wire::put<std::uint64_t>(image, arena.size());
    trace::wire::putArray(image, arena.data(), arena.size());
    trace::wire::put<std::uint64_t>(image, 0); // nested entries
    trace::wire::put<std::uint64_t>(image, code.size());
    trace::wire::putArray(image, code.data(), code.size());

    const auto bc = trace::BytecodeProgram::deserialize(image);
    EXPECT_EQ(bc.handleCount(), 8u);
    EXPECT_EQ(bc.serialize(), image);
    const std::vector<std::string> want = {
        "streamLoad 4660 4 0 [1,2,3,4,] -> 1000",
        "setOp 0 1000 4294967295 [1,2,3,4,] [] 4294967295 [] 8192 "
        "-> 1001",
        "free 1001"};
    EXPECT_EQ(replayedCalls(bc), want);
}

// ---------------- direct execution vs replay ----------------

TEST(BytecodeReplay, CycleIdenticalForEveryGpmApp)
{
    const auto g = test::randomTestGraph(60, 420, 92);
    for (const gpm::GpmApp app : gpm::allGpmApps()) {
        if (app == gpm::GpmApp::FSM)
            continue; // labeled-graph path covered below
        expectReplayMatchesDirect(
            captureGpm(g, app),
            api::RunRequest::gpm(app, g, directOptions()),
            gpm::gpmAppName(app));
    }
}

TEST(BytecodeReplay, CycleIdenticalForFsm)
{
    const graph::LabeledGraph lg = labeledTestGraph(93);
    trace::TraceRecorder recorder;
    gpm::runFsm(lg, recorder, 2);
    expectReplayMatchesDirect(
        recorder.takeTrace(),
        api::RunRequest::fsm(lg, 2, directOptions()), "fsm");
}

TEST(BytecodeReplay, CycleIdenticalForTensorKernels)
{
    const auto a = tensor::generateMatrix(
        30, 40, 240, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 220, tensor::MatrixStructure::Uniform, 32, "B");
    for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                 kernels::SpmspmAlgorithm::Outer,
                                 kernels::SpmspmAlgorithm::Gustavson}) {
        trace::TraceRecorder recorder;
        kernels::runSpmspm(a, b, algorithm, recorder);
        expectReplayMatchesDirect(
            recorder.takeTrace(),
            api::RunRequest::spmspm(a, b, algorithm, directOptions()),
            kernels::spmspmAlgorithmName(algorithm));
    }
    const auto t = tensor::generateTensor(15, 12, 20, 260, 43, "T");
    const std::vector<Value> vec(20, 1.5);
    {
        trace::TraceRecorder recorder;
        kernels::runTtv(t, vec, recorder);
        expectReplayMatchesDirect(
            recorder.takeTrace(),
            api::RunRequest::ttv(t, vec, directOptions()), "ttv");
    }
    {
        const auto m = tensor::generateMatrix(
            10, 20, 120, tensor::MatrixStructure::Uniform, 33, "M");
        trace::TraceRecorder recorder;
        kernels::runTtm(t, m, recorder);
        expectReplayMatchesDirect(
            recorder.takeTrace(),
            api::RunRequest::ttm(t, m, directOptions()), "ttm");
    }
}

TEST(BytecodeReplay, FunctionalStatsIdenticalAcrossEngines)
{
    // The functional substrate replays by applying the program's
    // EventProfile aggregate instead of walking, so its whole
    // observable surface — counters, stream-length histogram,
    // live-stream balance — must equal direct execution on a
    // FunctionalBackend, on both GPM and tensor workloads.
    const auto g = test::randomTestGraph(60, 420, 97);
    const auto a = tensor::generateMatrix(
        30, 40, 240, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 220, tensor::MatrixStructure::Uniform, 32, "B");
    const auto t = tensor::generateTensor(15, 12, 20, 260, 43, "T");
    const std::vector<Value> vec(20, 1.5);
    const std::vector<std::function<void(backend::ExecBackend &)>>
        workloads = {
            [&](backend::ExecBackend &be) {
                gpm::PlanExecutor executor(g, be);
                executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::C4));
            },
            [&](backend::ExecBackend &be) {
                kernels::runSpmspm(a, b,
                                   kernels::SpmspmAlgorithm::Gustavson,
                                   be);
            },
            [&](backend::ExecBackend &be) {
                kernels::runTtv(t, vec, be);
            },
        };

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        trace::TraceRecorder recorder;
        workloads[i](recorder);
        const trace::BytecodeProgram bc = recorder.takeTrace();
        backend::FunctionalBackend direct, replayed;
        workloads[i](direct);
        trace::replayCompiled(bc, replayed);
        EXPECT_EQ(direct.stats().dump(), replayed.stats().dump())
            << "workload " << i;
        EXPECT_EQ(direct.liveStreams(), replayed.liveStreams())
            << "workload " << i;
        const Histogram &hd = direct.streamLengthHist();
        const Histogram &hr = replayed.streamLengthHist();
        EXPECT_EQ(hd.samples(), hr.samples()) << "workload " << i;
        EXPECT_EQ(hd.sum(), hr.sum()) << "workload " << i;
        EXPECT_EQ(hd.maxValue(), hr.maxValue()) << "workload " << i;
        EXPECT_EQ(hd.buckets(), hr.buckets()) << "workload " << i;
    }
}

TEST(BytecodeReplay, ReplayCompiledMatchesDirectRun)
{
    // The capture-once path (what compare() and the microbench use):
    // one program, many replays, each equal to a direct run.
    const auto g = test::randomTestGraph(80, 600, 94);
    const trace::BytecodeProgram bc = captureGpm(g, gpm::GpmApp::C4);

    const arch::SparseCoreConfig config;
    const api::RunResult want = api::Machine(config).run(
        api::RunRequest::gpm(gpm::GpmApp::C4, g, directOptions()),
        api::Substrate::SparseCore);
    for (int round = 0; round < 3; ++round) {
        backend::SparseCoreBackend be(config);
        const auto got = trace::replayCompiled(bc, be);
        EXPECT_EQ(want.cycles, got.cycles) << "round " << round;
        EXPECT_EQ(want.breakdown.cycles, got.breakdown.cycles);
    }
}

// ---------------- serialization ----------------

TEST(BytecodeSerialization, RoundTripIsByteStable)
{
    const auto g = test::randomTestGraph(60, 400, 95);
    const trace::BytecodeProgram bc = captureGpm(g, gpm::GpmApp::T);

    const std::string bytes = bc.serialize();
    const auto back = trace::BytecodeProgram::deserialize(bytes);
    EXPECT_EQ(back.numInstructions(), bc.numInstructions());
    EXPECT_EQ(back.numEvents(), bc.numEvents());
    EXPECT_EQ(back.handleCount(), bc.handleCount());
    EXPECT_EQ(back.code(), bc.code());
    EXPECT_EQ(back.serialize(), bytes);

    backend::SparseCoreBackend be_a, be_b;
    EXPECT_EQ(trace::replayCompiled(bc, be_a).cycles,
              trace::replayCompiled(back, be_b).cycles);
}

TEST(BytecodeSerialization, RejectsCorruptInput)
{
    const auto g = test::randomTestGraph(30, 120, 96);
    const std::string bytes = captureGpm(g, gpm::GpmApp::TC).serialize();

    EXPECT_THROW(trace::BytecodeProgram::deserialize("bogus"),
                 SimError);
    EXPECT_THROW(trace::BytecodeProgram::deserialize(
                     std::string_view(bytes.data(), bytes.size() / 2)),
                 SimError);
    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    EXPECT_THROW(trace::BytecodeProgram::deserialize(wrong_magic),
                 SimError);

    // Out-of-range operands must fail validation on load, so the
    // unchecked replay loops never see them: force the handle count
    // to zero, making every recorded stream handle out of range.
    std::string bad_handles = bytes;
    for (int i = 0; i < 4; ++i)
        bad_handles[8 + i] = 0; // handleCount field after magic+version
    EXPECT_THROW(trace::BytecodeProgram::deserialize(bad_handles),
                 SimError);
}

TEST(BytecodeSerialization, GoldenBytecodeStaysByteStable)
{
    // Pins the SCBC format, and with it capture determinism: the
    // recorder's program, serialized as it stands, must equal the
    // committed bytes. A layout change must bump
    // bytecodeFormatVersion and regenerate
    // (SPARSECORE_REGEN_GOLDEN=1 ./sparsecore_tests).
    const std::string path =
        std::string(SPARSECORE_TEST_DATA_DIR) + "/golden_trace.scbc";
    const graph::CsrGraph g = test::figureOneGraph();
    const trace::BytecodeProgram bc = captureGpm(g, gpm::GpmApp::T);

    if (std::getenv("SPARSECORE_REGEN_GOLDEN")) {
        bc.saveFile(path);
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), bc.serialize())
        << "captured program diverged from the golden SCBC file";

    const auto golden = trace::BytecodeProgram::loadFile(path);
    backend::SparseCoreBackend be;
    EXPECT_EQ(trace::replayCompiled(golden, be).cycles,
              api::Machine()
                  .run(api::RunRequest::gpm(gpm::GpmApp::T, g,
                                            directOptions()),
                       api::Substrate::SparseCore)
                  .cycles);
}

// ---------------- api path vs direct runs ----------------

TEST(BytecodeApi, CompareIdenticalAcrossReplayModes)
{
    // Machine::compare replays the captured program; direct runs of
    // the same request must give the same cycles and breakdowns on
    // both substrates.
    const auto g = test::randomTestGraph(90, 700, 97);
    const arch::SparseCoreConfig config;
    const api::Machine machine(config);
    const auto bc =
        machine.compare(api::RunRequest::gpm(gpm::GpmApp::TC, g));

    const auto direct_req =
        api::RunRequest::gpm(gpm::GpmApp::TC, g, directOptions());
    const auto cpu = machine.run(direct_req, api::Substrate::Cpu);
    const auto sc = machine.run(direct_req, api::Substrate::SparseCore);

    EXPECT_EQ(cpu.cycles, bc.baseline.cycles);
    EXPECT_EQ(sc.cycles, bc.accelerated.cycles);
    EXPECT_EQ(cpu.breakdown.cycles, bc.baseline.breakdown.cycles);
    EXPECT_EQ(sc.breakdown.cycles, bc.accelerated.breakdown.cycles);
    EXPECT_EQ(sc.functionalResult, bc.functionalResult);

    // TraceStats: every trace-driven path reports its program size
    // and the bytecode engine.
    EXPECT_EQ(bc.trace.replayMode, "bytecode");
    EXPECT_GT(bc.trace.bytecodeBytes, 0u);
    EXPECT_NE(bc.str().find(std::to_string(bc.trace.bytecodeBytes) +
                            " code bytes"),
              std::string::npos);
    EXPECT_NE(bc.str().find("(bytecode)"), std::string::npos);
}
