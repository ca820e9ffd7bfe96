/**
 * @file
 * Tests for capture and replay: a captured program, replayed, gives
 * cycles and breakdowns bit-identical to direct execution for every
 * backend x app x graph x tensor-kernel combination covered here,
 * interning keeps the arena small, and the capture-once api paths
 * (Machine::compare / compareParallelGpm) match their direct
 * equivalents.
 */

#include <gtest/gtest.h>

#include "api/machine.hh"
#include "api/parallel.hh"
#include "backend/cpu_backend.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "baselines/flexminer.hh"
#include "baselines/gpu_model.hh"
#include "baselines/triejax.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "gpm/isomorphism.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;

namespace {

/** Capture one GPM run's program. */
trace::BytecodeProgram
captureGpm(const graph::CsrGraph &g, gpm::GpmApp app)
{
    trace::TraceRecorder recorder;
    gpm::PlanExecutor executor(g, recorder);
    executor.runMany(gpm::gpmAppPlans(app));
    return recorder.takeTrace();
}

/** Replay the program onto `backend`. */
trace::ReplayResult
replay(const trace::BytecodeProgram &bc, backend::ExecBackend &backend)
{
    return trace::replayCompiled(bc, backend);
}

/** walkBytecode handler summing the key-span lengths the
 *  instructions reference (nested entries' spans excluded). */
struct SpanVolume
{
    using TS = trace::TraceStream;
    using Ref = trace::SpanRef;

    std::uint64_t keys = 0;

    void scalarOps(std::uint64_t, std::uint32_t) {}
    void scalarBranch(std::uint64_t, bool) {}
    void scalarLoad(Addr) {}
    void
    streamLoad(TS, Addr, std::uint64_t, std::uint8_t, Ref s0)
    {
        keys += s0.len;
    }
    void
    streamLoadKv(TS, Addr, Addr, std::uint64_t, std::uint8_t, Ref s0)
    {
        keys += s0.len;
    }
    void streamFree(TS) {}
    void
    setOp(TS, std::uint8_t, TS, TS, Ref s0, Ref s1, Key, Ref s2, Addr)
    {
        keys += std::uint64_t{s0.len} + s1.len + s2.len;
    }
    void
    setOpCount(std::uint8_t, TS, TS, Ref s0, Ref s1, Key, std::uint64_t)
    {
        keys += std::uint64_t{s0.len} + s1.len;
    }
    void
    valueIntersect(bool, TS, TS, Ref s0, Ref s1, Addr, Addr, Ref s2,
                   Ref s3)
    {
        keys += std::uint64_t{s0.len} + s1.len + s2.len + s3.len;
    }
    void
    valueMerge(TS, TS, TS, Ref s0, Ref s1, Addr, Addr, std::uint64_t,
               Addr)
    {
        keys += std::uint64_t{s0.len} + s1.len;
    }
    void
    nestedGroup(TS, Ref s0, std::uint64_t, std::uint32_t)
    {
        keys += s0.len;
    }
    void consumeStream(TS) {}
    void iterateStream(TS, std::uint64_t, std::uint8_t) {}
};

/**
 * The core property: direct execution and trace replay must agree
 * bit-for-bit on cycles AND on the full breakdown.
 */
template <typename MakeBackend>
void
expectReplayEquivalence(const graph::CsrGraph &g, gpm::GpmApp app,
                        MakeBackend make, const char *label)
{
    auto direct_be = make();
    gpm::PlanExecutor direct(g, *direct_be);
    const auto d = direct.runMany(gpm::gpmAppPlans(app));

    const trace::BytecodeProgram tr = captureGpm(g, app);
    auto replay_be = make();
    const auto r = replay(tr, *replay_be);

    EXPECT_EQ(d.cycles, r.cycles)
        << label << " " << gpm::gpmAppName(app) << " on " << g.name();
    EXPECT_EQ(d.breakdown.cycles, r.breakdown.cycles)
        << label << " " << gpm::gpmAppName(app) << " on " << g.name();
}

} // namespace

// ---------------- GPM replay equivalence ----------------

class TraceReplay : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceReplay, GpmBitIdenticalAcrossBackends)
{
    const auto g =
        test::randomTestGraph(120, 900, GetParam());
    const arch::SparseCoreConfig config;
    arch::SparseCoreConfig no_nested = config;
    no_nested.nestedIntersection = false;

    for (const gpm::GpmApp app :
         {gpm::GpmApp::T, gpm::GpmApp::TC, gpm::GpmApp::C4}) {
        expectReplayEquivalence(
            g, app,
            [&] {
                return std::make_unique<backend::CpuBackend>(
                    config.core, config.mem);
            },
            "cpu");
        expectReplayEquivalence(
            g, app,
            [&] {
                return std::make_unique<backend::SparseCoreBackend>(
                    config);
            },
            "sparsecore");
        expectReplayEquivalence(
            g, app,
            [&] {
                return std::make_unique<backend::SparseCoreBackend>(
                    no_nested);
            },
            "sparsecore-no-nested");
        expectReplayEquivalence(
            g, app,
            [&] {
                return std::make_unique<baselines::FlexMinerBackend>();
            },
            "flexminer");

        const auto plans = gpm::gpmAppPlans(app);
        const unsigned redundancy = static_cast<unsigned>(
            gpm::automorphisms(plans.front().pattern).size());
        expectReplayEquivalence(
            g, app,
            [&] {
                return std::make_unique<baselines::GpuBackend>(
                    true, redundancy);
            },
            "gpu");
        if (app == gpm::GpmApp::T || app == gpm::GpmApp::C4)
            expectReplayEquivalence(
                g, app,
                [&] {
                    return std::make_unique<baselines::TrieJaxBackend>(
                        redundancy, g.numEdgeSlots());
                },
                "triejax");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceReplay,
                         ::testing::Values(11, 22, 33));

TEST(TraceReplayFsm, BitIdenticalOnLabeledGraph)
{
    auto base = test::randomTestGraph(80, 500, 77);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);

    trace::TraceRecorder recorder;
    const auto functional = gpm::runFsm(lg, recorder, 2);
    const trace::BytecodeProgram tr = recorder.takeTrace();

    for (const bool sparse : {false, true}) {
        const arch::SparseCoreConfig config;
        std::unique_ptr<backend::ExecBackend> direct_be, replay_be;
        if (sparse) {
            direct_be =
                std::make_unique<backend::SparseCoreBackend>(config);
            replay_be =
                std::make_unique<backend::SparseCoreBackend>(config);
        } else {
            direct_be = std::make_unique<backend::CpuBackend>(
                config.core, config.mem);
            replay_be = std::make_unique<backend::CpuBackend>(
                config.core, config.mem);
        }
        const auto direct = gpm::runFsm(lg, *direct_be, 2);
        const auto replayed = replay(tr, *replay_be);
        EXPECT_EQ(direct.cycles, replayed.cycles);
        EXPECT_EQ(direct.totalFrequent(), functional.totalFrequent());
    }
}

// ---------------- tensor-kernel replay equivalence ----------------

TEST(TraceReplayTensor, SpmspmAllAlgorithms)
{
    const auto a = tensor::generateMatrix(
        40, 50, 300, tensor::MatrixStructure::Uniform, 21, "A");
    const auto b = tensor::generateMatrix(
        50, 35, 280, tensor::MatrixStructure::Uniform, 22, "B");
    const arch::SparseCoreConfig config;

    for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                 kernels::SpmspmAlgorithm::Outer,
                                 kernels::SpmspmAlgorithm::Gustavson}) {
        trace::TraceRecorder recorder;
        kernels::runSpmspm(a, b, algorithm, recorder);
        const trace::BytecodeProgram tr = recorder.takeTrace();

        backend::CpuBackend cpu_direct(config.core, config.mem);
        const auto cd = kernels::runSpmspm(a, b, algorithm, cpu_direct);
        backend::CpuBackend cpu_replay(config.core, config.mem);
        const auto cr = replay(tr, cpu_replay);
        EXPECT_EQ(cd.cycles, cr.cycles);
        EXPECT_EQ(cpu_direct.breakdown().cycles, cr.breakdown.cycles);

        backend::SparseCoreBackend sc_direct(config);
        const auto sd = kernels::runSpmspm(a, b, algorithm, sc_direct);
        backend::SparseCoreBackend sc_replay(config);
        const auto sr = replay(tr, sc_replay);
        EXPECT_EQ(sd.cycles, sr.cycles);
        EXPECT_EQ(sc_direct.breakdown().cycles, sr.breakdown.cycles);
    }
}

TEST(TraceReplayTensor, TtvAndTtm)
{
    const auto t = tensor::generateTensor(20, 15, 30, 400, 41, "T");
    const std::vector<Value> vec(30, 1.5);
    const auto b = tensor::generateMatrix(
        12, 30, 140, tensor::MatrixStructure::Uniform, 42, "B");
    const arch::SparseCoreConfig config;

    {
        trace::TraceRecorder recorder;
        kernels::runTtv(t, vec, recorder);
        const trace::BytecodeProgram tr = recorder.takeTrace();
        backend::CpuBackend direct(config.core, config.mem);
        const auto d = kernels::runTtv(t, vec, direct);
        backend::CpuBackend rep(config.core, config.mem);
        EXPECT_EQ(d.cycles, replay(tr, rep).cycles);
        backend::SparseCoreBackend sc_direct(config);
        const auto ds = kernels::runTtv(t, vec, sc_direct);
        backend::SparseCoreBackend sc_rep(config);
        EXPECT_EQ(ds.cycles, replay(tr, sc_rep).cycles);
    }
    {
        trace::TraceRecorder recorder;
        kernels::runTtm(t, b, recorder);
        const trace::BytecodeProgram tr = recorder.takeTrace();
        backend::CpuBackend direct(config.core, config.mem);
        const auto d = kernels::runTtm(t, b, direct);
        backend::CpuBackend rep(config.core, config.mem);
        EXPECT_EQ(d.cycles, replay(tr, rep).cycles);
        backend::SparseCoreBackend sc_direct(config);
        const auto ds = kernels::runTtm(t, b, sc_direct);
        backend::SparseCoreBackend sc_rep(config);
        EXPECT_EQ(ds.cycles, replay(tr, sc_rep).cycles);
    }
}

// ---------------- statistics ----------------

TEST(TraceStats, InterningDeduplicatesSpans)
{
    // Neighbor lists recur across recursion levels; the interned
    // arena must stay well below the total referenced key volume.
    const auto g = test::randomTestGraph(100, 1200, 58);
    const trace::BytecodeProgram bc = captureGpm(g, gpm::GpmApp::C4);
    SpanVolume referenced;
    trace::walkBytecode(bc, referenced);
    ASSERT_GT(referenced.keys, 0u);
    EXPECT_LT(bc.arenaKeys(), referenced.keys / 2)
        << "interning should deduplicate repeated neighbor lists";
    EXPECT_GE(bc.memoryBytes(), bc.arenaBytes() + bc.codeBytes());
}

// ---------------- api capture-once paths ----------------

TEST(TraceApi, CompareGpmMatchesDirectRuns)
{
    const auto g = test::randomTestGraph(100, 800, 59);
    api::Machine machine;
    for (const gpm::GpmApp app : {gpm::GpmApp::T, gpm::GpmApp::TC}) {
        const auto req = api::RunRequest::gpm(app, g);
        const auto cmp = machine.compare(req);
        const auto cpu = machine.run(req, api::Substrate::Cpu);
        const auto sc = machine.run(req, api::Substrate::SparseCore);
        EXPECT_EQ(cmp.baseline.cycles, cpu.cycles);
        EXPECT_EQ(cmp.accelerated.cycles, sc.cycles);
        EXPECT_EQ(cmp.baseline.breakdown.cycles, cpu.breakdown.cycles);
        EXPECT_EQ(cmp.accelerated.breakdown.cycles,
                  sc.breakdown.cycles);
        EXPECT_EQ(cmp.functionalResult, sc.functionalResult);
        EXPECT_GT(cmp.trace.events, 0u);
        EXPECT_GT(cmp.trace.arenaBytes, 0u);
        EXPECT_NE(cmp.str().find("trace:"), std::string::npos);
    }
}

TEST(TraceApi, CompareParallelGpmMatchesMineParallel)
{
    const auto g = test::randomTestGraph(200, 1800, 60);
    const auto cmp = api::compareParallelGpm(gpm::GpmApp::T, g, 6);
    const auto cpu = api::mineParallelCpu(gpm::GpmApp::T, g, 6);
    const auto sc = api::mineParallelSparseCore(gpm::GpmApp::T, g, 6);
    EXPECT_EQ(cmp.functionalResult, sc.embeddings);
    EXPECT_EQ(cmp.baseline.cycles, cpu.cycles);
    EXPECT_EQ(cmp.accelerated.cycles, sc.cycles);
    ASSERT_EQ(cmp.baseline.perCore.size(), cpu.perCore.size());
    for (std::size_t c = 0; c < cpu.perCore.size(); ++c) {
        EXPECT_EQ(cmp.baseline.perCore[c], cpu.perCore[c]);
        EXPECT_EQ(cmp.accelerated.perCore[c], sc.perCore[c]);
    }
    EXPECT_GT(cmp.speedup(), 1.0);
}

TEST(TraceApi, CompareParallelGpmDeterministicAcrossPools)
{
    const auto g = test::randomTestGraph(150, 1200, 61);
    ThreadPool one(1), four(4);
    api::HostOptions h1, h4;
    h1.pool = &one;
    h4.pool = &four;
    const auto r1 =
        api::compareParallelGpm(gpm::GpmApp::C4, g, 6, {}, 1, h1);
    const auto r4 =
        api::compareParallelGpm(gpm::GpmApp::C4, g, 6, {}, 1, h4);
    EXPECT_EQ(r1.functionalResult, r4.functionalResult);
    EXPECT_EQ(r1.baseline.cycles, r4.baseline.cycles);
    EXPECT_EQ(r1.accelerated.cycles, r4.accelerated.cycles);
    ASSERT_EQ(r1.baseline.perCore.size(), r4.baseline.perCore.size());
    for (std::size_t c = 0; c < r1.baseline.perCore.size(); ++c) {
        EXPECT_EQ(r1.baseline.perCore[c], r4.baseline.perCore[c]);
        EXPECT_EQ(r1.accelerated.perCore[c],
                  r4.accelerated.perCore[c]);
    }
}
