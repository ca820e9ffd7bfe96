/**
 * @file
 * Tests for the compiled-trace bytecode: compile/decode is an exact
 * round trip (including randomized traces that force wide operands,
 * sentinel handles and explicit result ids), replayed cycles are
 * bit-identical between the event walker and the bytecode loops for
 * every GPM app and tensor kernel on both timing substrates, the SCBC
 * image is byte-stable and validated on load, and Machine::compare
 * agrees with the reference event walker.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "api/machine.hh"
#include "backend/cpu_backend.hh"
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
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;

namespace {

trace::Trace
captureGpm(const graph::CsrGraph &g, gpm::GpmApp app)
{
    trace::TraceRecorder recorder;
    gpm::PlanExecutor executor(g, recorder);
    executor.runMany(gpm::gpmAppPlans(app));
    return recorder.takeTrace();
}

bool
sameSpan(const trace::SpanRef &a, const trace::SpanRef &b)
{
    return a.off == b.off && a.len == b.len;
}

/** Field-by-field event equality (spans by arena reference). */
void
expectSameEvents(const std::vector<trace::Event> &decoded,
                 const std::vector<trace::Event> &source,
                 const char *label)
{
    ASSERT_EQ(decoded.size(), source.size()) << label;
    for (std::size_t i = 0; i < source.size(); ++i) {
        const trace::Event &d = decoded[i];
        const trace::Event &s = source[i];
        EXPECT_EQ(d.kind, s.kind) << label << " event " << i;
        EXPECT_EQ(d.aux, s.aux) << label << " event " << i;
        EXPECT_EQ(d.aux2, s.aux2) << label << " event " << i;
        EXPECT_EQ(d.a, s.a) << label << " event " << i;
        EXPECT_EQ(d.b, s.b) << label << " event " << i;
        EXPECT_EQ(d.result, s.result) << label << " event " << i;
        EXPECT_EQ(d.bound, s.bound) << label << " event " << i;
        EXPECT_EQ(d.addr0, s.addr0) << label << " event " << i;
        EXPECT_EQ(d.addr1, s.addr1) << label << " event " << i;
        EXPECT_EQ(d.addr2, s.addr2) << label << " event " << i;
        EXPECT_EQ(d.n, s.n) << label << " event " << i;
        EXPECT_TRUE(sameSpan(d.s0, s.s0)) << label << " event " << i;
        EXPECT_TRUE(sameSpan(d.s1, s.s1)) << label << " event " << i;
        EXPECT_TRUE(sameSpan(d.s2, s.s2)) << label << " event " << i;
        EXPECT_TRUE(sameSpan(d.s3, s.s3)) << label << " event " << i;
        if (::testing::Test::HasFailure())
            return;
    }
}

void
expectRoundTrip(const trace::Trace &tr, const char *label)
{
    const trace::BytecodeProgram bc = trace::compileTrace(tr);
    EXPECT_EQ(bc.numSourceEvents(), tr.numEvents()) << label;
    EXPECT_EQ(bc.handleCount(), tr.handleCount()) << label;
    EXPECT_EQ(bc.arenaKeys(), tr.arenaKeys()) << label;
    expectSameEvents(bc.decodeEvents(), tr.events(), label);
    EXPECT_LE(bc.numInstructions(), tr.numEvents()) << label;
}

} // namespace

// ---------------- compile/decode round trip ----------------

TEST(BytecodeRoundTrip, CapturedGpmTracesDecodeExactly)
{
    const auto g = test::randomTestGraph(80, 600, 91);
    for (const gpm::GpmApp app :
         {gpm::GpmApp::T, gpm::GpmApp::TC, gpm::GpmApp::C4}) {
        const trace::Trace tr = captureGpm(g, app);
        ASSERT_GT(tr.numEvents(), 0u);
        expectRoundTrip(tr, gpm::gpmAppName(app));
    }
}

TEST(BytecodeRoundTrip, FusionShrinksScalarRuns)
{
    // The fused program must be strictly smaller whenever the trace
    // contains a run of identical consecutive scalarOps events.
    trace::TraceRecorder recorder;
    for (int i = 0; i < 100; ++i)
        recorder.scalarOps(3);
    recorder.scalarOps(4);
    for (int i = 0; i < 50; ++i)
        recorder.scalarOps(3);
    const trace::Trace tr = recorder.takeTrace();

    const auto fused = trace::compileTrace(tr);
    EXPECT_EQ(fused.numInstructions(), 3u);
    // Unfused, every event would take a header and an operand word.
    EXPECT_LT(fused.codeBytes(),
              tr.numEvents() * 2 * sizeof(trace::Word));
    expectSameEvents(fused.decodeEvents(), tr.events(), "fused");
}

TEST(BytecodeRoundTrip, RandomizedRecorderTraces)
{
    // Property test: arbitrary valid recorder call sequences survive
    // compile -> decode exactly. Large 64-bit addresses force the
    // wide operand form; the generator also exercises sentinel
    // handles and every event kind.
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
    std::vector<backend::BackendStream> live;
    auto pick = [&]() -> backend::BackendStream {
        if (live.empty() || rng() % 8 == 0)
            return backend::noStream;
        return live[rng() % live.size()];
    };

    for (int step = 0; step < 4000; ++step) {
        switch (rng() % 12) {
        case 0:
            recorder.scalarOps((rng() & 1)
                                   ? rng() % 64
                                   : rng()); // forces wide n
            break;
        case 1:
            recorder.scalarBranch(addr(), rng() & 1);
            break;
        case 2:
            recorder.scalarLoad(addr());
            break;
        case 3:
            live.push_back(recorder.streamLoad(
                addr(), static_cast<std::uint32_t>(rng()),
                rng() % 4, keys(32)));
            break;
        case 4:
            live.push_back(recorder.streamLoadKv(
                addr(), addr(), static_cast<std::uint32_t>(rng()),
                rng() % 4, keys(32)));
            break;
        case 5:
            if (!live.empty()) {
                const std::size_t i = rng() % live.size();
                recorder.streamFree(live[i]);
                live.erase(live.begin() + i);
            }
            break;
        case 6:
            live.push_back(recorder.setOp(
                static_cast<streams::SetOpKind>(rng() % 3), pick(),
                pick(), keys(32), keys(32),
                (rng() & 1) ? noBound : static_cast<Key>(rng()),
                keys(16), addr()));
            break;
        case 7:
            recorder.setOpCount(
                static_cast<streams::SetOpKind>(rng() % 3), pick(),
                pick(), keys(32), keys(32),
                (rng() & 1) ? noBound : static_cast<Key>(rng()),
                rng());
            break;
        case 8: {
            const auto ma = keys(8);
            const auto mb = keys(8);
            if (rng() & 1)
                recorder.valueIntersect(pick(), pick(), keys(32),
                                        keys(32), addr(), addr(),
                                        ma, mb);
            else
                recorder.denseValueIntersect(pick(), pick(),
                                             keys(32), keys(32),
                                             addr(), addr(), ma, mb);
            break;
        }
        case 9:
            live.push_back(recorder.valueMerge(
                pick(), pick(), keys(32), keys(32), addr(), addr(),
                rng(), addr()));
            break;
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
            recorder.nestedIntersect(pick(), keys(32), elems);
            break;
        }
        case 11:
            if (rng() & 1)
                recorder.consumeStream(pick());
            else
                recorder.iterateStream(pick(), rng(), rng() % 8);
            break;
        }
    }
    const trace::Trace tr = recorder.takeTrace();
    ASSERT_GT(tr.numEvents(), 1000u);
    expectRoundTrip(tr, "randomized");
}

TEST(BytecodeRoundTrip, HandBuiltExplicitResultIds)
{
    // Recorder-produced traces always assign creation-order result
    // handles (the implicit form); a hand-built trace with
    // out-of-order results must still round-trip via the explicit
    // form.
    trace::Trace tr;
    const Key data[4] = {1, 2, 3, 4};
    const trace::SpanRef ref = tr.intern({data, 4});

    trace::Event load;
    load.kind = trace::EventKind::StreamLoad;
    load.result = 7; // not the creation-order id 0
    load.addr0 = 0x1234;
    load.n = 4;
    load.s0 = ref;
    tr.append(load);

    trace::Event op;
    op.kind = trace::EventKind::SetOp;
    op.aux = static_cast<std::uint8_t>(streams::SetOpKind::Intersect);
    op.a = 7;
    op.b = trace::noTraceStream;
    op.result = 2;
    op.s0 = ref;
    op.addr0 = ~std::uint64_t{0}; // max address: wide delta
    tr.append(op);

    trace::Event free_ev;
    free_ev.kind = trace::EventKind::StreamFree;
    free_ev.a = 2;
    tr.append(free_ev);

    tr.setHandleCount(8);
    expectRoundTrip(tr, "hand-built");

    const auto bc = trace::compileTrace(tr);
    const std::string bytes = bc.serialize();
    const auto back = trace::BytecodeProgram::deserialize(bytes);
    expectSameEvents(back.decodeEvents(), tr.events(),
                     "hand-built serialized");
}

// ---------------- walker vs bytecode cycle identity ----------------

TEST(BytecodeReplay, CycleIdenticalForEveryGpmApp)
{
    const auto g = test::randomTestGraph(60, 420, 92);
    const arch::SparseCoreConfig config;
    for (const gpm::GpmApp app : gpm::allGpmApps()) {
        if (app == gpm::GpmApp::FSM)
            continue; // labeled-graph path covered below
        const trace::Trace tr = captureGpm(g, app);

        backend::CpuBackend cpu_e(config.core, config.mem);
        backend::CpuBackend cpu_b(config.core, config.mem);
        const auto ce = trace::replayEvents(tr, cpu_e);
        const auto cb =
            trace::replayCompiled(trace::compileTrace(tr), cpu_b);
        EXPECT_EQ(ce.cycles, cb.cycles) << gpm::gpmAppName(app);
        EXPECT_EQ(ce.breakdown.cycles, cb.breakdown.cycles)
            << gpm::gpmAppName(app);

        backend::SparseCoreBackend sc_e(config), sc_b(config);
        const auto se = trace::replayEvents(tr, sc_e);
        const auto sb =
            trace::replayCompiled(trace::compileTrace(tr), sc_b);
        EXPECT_EQ(se.cycles, sb.cycles) << gpm::gpmAppName(app);
        EXPECT_EQ(se.breakdown.cycles, sb.breakdown.cycles)
            << gpm::gpmAppName(app);
    }
}

TEST(BytecodeReplay, CycleIdenticalForFsm)
{
    auto base = test::randomTestGraph(70, 420, 93);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);

    trace::TraceRecorder recorder;
    gpm::runFsm(lg, recorder, 2);
    const trace::Trace tr = recorder.takeTrace();

    const arch::SparseCoreConfig config;
    backend::SparseCoreBackend sc_e(config), sc_b(config);
    EXPECT_EQ(trace::replayEvents(tr, sc_e).cycles,
              trace::replayCompiled(trace::compileTrace(tr), sc_b)
                  .cycles);
}

TEST(BytecodeReplay, CycleIdenticalForTensorKernels)
{
    const arch::SparseCoreConfig config;
    std::vector<trace::Trace> traces;

    const auto a = tensor::generateMatrix(
        30, 40, 240, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 220, tensor::MatrixStructure::Uniform, 32, "B");
    for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                 kernels::SpmspmAlgorithm::Outer,
                                 kernels::SpmspmAlgorithm::Gustavson}) {
        trace::TraceRecorder recorder;
        kernels::runSpmspm(a, b, algorithm, recorder);
        traces.push_back(recorder.takeTrace());
    }
    const auto t = tensor::generateTensor(15, 12, 20, 260, 43, "T");
    {
        trace::TraceRecorder recorder;
        kernels::runTtv(t, std::vector<Value>(20, 1.5), recorder);
        traces.push_back(recorder.takeTrace());
    }
    {
        const auto m = tensor::generateMatrix(
            10, 20, 120, tensor::MatrixStructure::Uniform, 33, "M");
        trace::TraceRecorder recorder;
        kernels::runTtm(t, m, recorder);
        traces.push_back(recorder.takeTrace());
    }

    for (std::size_t i = 0; i < traces.size(); ++i) {
        const trace::Trace &tr = traces[i];
        expectRoundTrip(tr, "tensor");
        backend::CpuBackend cpu_e(config.core, config.mem);
        backend::CpuBackend cpu_b(config.core, config.mem);
        EXPECT_EQ(trace::replayEvents(tr, cpu_e).cycles,
                  trace::replayCompiled(trace::compileTrace(tr), cpu_b)
                      .cycles)
            << "kernel trace " << i;
        backend::SparseCoreBackend sc_e(config), sc_b(config);
        EXPECT_EQ(trace::replayEvents(tr, sc_e).cycles,
                  trace::replayCompiled(trace::compileTrace(tr), sc_b)
                      .cycles)
            << "kernel trace " << i;
    }
}

TEST(BytecodeReplay, FunctionalStatsIdenticalAcrossEngines)
{
    // The bytecode path replays the functional substrate by applying
    // the compile-time EventProfile aggregate instead of walking, so
    // its whole observable surface — counters, stream-length
    // histogram, live-stream balance — must be bit-identical to the
    // per-event walk, on both GPM and tensor traces.
    std::vector<trace::Trace> traces;
    const auto g = test::randomTestGraph(60, 420, 97);
    traces.push_back(captureGpm(g, gpm::GpmApp::C4));
    const auto a = tensor::generateMatrix(
        30, 40, 240, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 220, tensor::MatrixStructure::Uniform, 32, "B");
    {
        trace::TraceRecorder recorder;
        kernels::runSpmspm(a, b, kernels::SpmspmAlgorithm::Gustavson,
                           recorder);
        traces.push_back(recorder.takeTrace());
    }
    {
        const auto t = tensor::generateTensor(15, 12, 20, 260, 43, "T");
        trace::TraceRecorder recorder;
        kernels::runTtv(t, std::vector<Value>(20, 1.5), recorder);
        traces.push_back(recorder.takeTrace());
    }

    for (std::size_t i = 0; i < traces.size(); ++i) {
        const trace::Trace &tr = traces[i];
        backend::FunctionalBackend ev, bc;
        trace::replayEvents(tr, ev);
        trace::replayCompiled(trace::compileTrace(tr), bc);
        EXPECT_EQ(ev.stats().dump(), bc.stats().dump())
            << "trace " << i;
        EXPECT_EQ(ev.liveStreams(), bc.liveStreams()) << "trace " << i;
        const Histogram &he = ev.streamLengthHist();
        const Histogram &hb = bc.streamLengthHist();
        EXPECT_EQ(he.samples(), hb.samples()) << "trace " << i;
        EXPECT_EQ(he.sum(), hb.sum()) << "trace " << i;
        EXPECT_EQ(he.maxValue(), hb.maxValue()) << "trace " << i;
        EXPECT_EQ(he.buckets(), hb.buckets()) << "trace " << i;
    }
}

TEST(BytecodeReplay, ReplayCompiledMatchesEventWalk)
{
    // The compile-once path (what compare() and the microbench use):
    // one program, many replays, same cycles as the event walker.
    const auto g = test::randomTestGraph(80, 600, 94);
    const trace::Trace tr = captureGpm(g, gpm::GpmApp::C4);
    const trace::BytecodeProgram bc = trace::compileTrace(tr);

    const arch::SparseCoreConfig config;
    backend::SparseCoreBackend ref(config);
    const auto want = trace::replayEvents(tr, ref);
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
    const trace::Trace tr = captureGpm(g, gpm::GpmApp::T);
    const trace::BytecodeProgram bc = trace::compileTrace(tr);

    const std::string bytes = bc.serialize();
    const auto back = trace::BytecodeProgram::deserialize(bytes);
    EXPECT_EQ(back.numInstructions(), bc.numInstructions());
    EXPECT_EQ(back.numSourceEvents(), bc.numSourceEvents());
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
    const trace::Trace tr = captureGpm(g, gpm::GpmApp::TC);
    const std::string bytes = trace::compileTrace(tr).serialize();

    EXPECT_THROW(trace::BytecodeProgram::deserialize("bogus"),
                 SimError);
    EXPECT_THROW(trace::BytecodeProgram::deserialize(
                     std::string_view(bytes.data(), bytes.size() / 2)),
                 SimError);
    std::string wrong_magic = bytes;
    wrong_magic[0] = 'X';
    EXPECT_THROW(trace::BytecodeProgram::deserialize(wrong_magic),
                 SimError);

    // Out-of-range operands must fail validate() on load, so the
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
    // Pins the SCBC format, and with it capture determinism: a fresh
    // capture must compile to the committed bytes. A layout change
    // must bump bytecodeFormatVersion and regenerate
    // (SPARSECORE_REGEN_GOLDEN=1 ./sparsecore_tests).
    const std::string path =
        std::string(SPARSECORE_TEST_DATA_DIR) + "/golden_trace.scbc";
    const trace::Trace tr =
        captureGpm(test::figureOneGraph(), gpm::GpmApp::T);
    const std::string bytes = trace::compileTrace(tr).serialize();

    if (std::getenv("SPARSECORE_REGEN_GOLDEN")) {
        trace::compileTrace(tr).saveFile(path);
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), bytes)
        << "compiled bytecode diverged from the golden SCBC file";

    const auto golden = trace::BytecodeProgram::loadFile(path);
    backend::SparseCoreBackend be_a, be_b;
    EXPECT_EQ(trace::replayCompiled(golden, be_a).cycles,
              trace::replayEvents(tr, be_b).cycles);
}

// ---------------- api path vs the reference walker ----------------

TEST(BytecodeApi, CompareIdenticalAcrossReplayModes)
{
    // Machine::compare replays compiled bytecode; the reference
    // walker over a capture of the same request must give the same
    // cycles and breakdowns on both substrates.
    const auto g = test::randomTestGraph(90, 700, 97);
    const arch::SparseCoreConfig config;
    api::Machine machine(config);
    const auto bc =
        machine.compare(api::RunRequest::gpm(gpm::GpmApp::TC, g));

    trace::TraceRecorder recorder;
    gpm::PlanExecutor executor(g, recorder);
    const auto run =
        executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::TC));
    const trace::Trace tr = recorder.takeTrace();
    backend::CpuBackend cpu(config.core, config.mem);
    const auto cpu_ev = trace::replayEvents(tr, cpu);
    backend::SparseCoreBackend sc(config);
    const auto sc_ev = trace::replayEvents(tr, sc);

    EXPECT_EQ(cpu_ev.cycles, bc.baseline.cycles);
    EXPECT_EQ(sc_ev.cycles, bc.accelerated.cycles);
    EXPECT_EQ(cpu_ev.breakdown.cycles, bc.baseline.breakdown.cycles);
    EXPECT_EQ(sc_ev.breakdown.cycles, bc.accelerated.breakdown.cycles);
    EXPECT_EQ(run.embeddings, bc.functionalResult);

    // TraceStats: every trace-driven path reports its compiled size
    // and the bytecode engine.
    EXPECT_EQ(bc.trace.replayMode, "bytecode");
    EXPECT_GT(bc.trace.bytecodeBytes, 0u);
    EXPECT_GE(bc.trace.compileSeconds, 0.0);
    EXPECT_NE(bc.str().find("bytecode:"), std::string::npos);
    EXPECT_NE(bc.str().find("(bytecode)"), std::string::npos);
}

// ---------------- compactness ----------------

TEST(BytecodeStats, CodeIsSmallerThanEventArray)
{
    // The point of the lowering: the flat code must be a small
    // fraction of the 112-byte-per-event array it replaces.
    const auto g = test::randomTestGraph(100, 900, 99);
    const trace::Trace tr = captureGpm(g, gpm::GpmApp::C4);
    const trace::BytecodeProgram bc = trace::compileTrace(tr);

    const std::size_t event_bytes =
        tr.numEvents() * sizeof(trace::Event);
    EXPECT_LT(bc.codeBytes(), event_bytes / 4)
        << "bytecode should be at least 4x denser than the event "
           "array";
    EXPECT_GT(bc.memoryBytes(), bc.codeBytes());
}
