/**
 * @file
 * The ArtifactStore's contract: a cold capture and a warm hit give
 * the functional results and simulated cycles of direct execution
 * (run(), compare(), the host-parallel miners, every workload),
 * artifacts are content-keyed (two structurally identical graph,
 * matrix or tensor objects share one trace), each key holds one
 * entry sized by its program, the byte budget evicts LRU entries
 * while pinned in-use artifacts survive, and concurrent requests
 * build each artifact exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "api/artifact_store.hh"
#include "api/machine.hh"
#include "api/parallel.hh"
#include "api/pipeline.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "graph/generators.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"

using namespace sc;
using namespace sc::api;

namespace {

/** Per-test seeds: each test gets a structurally distinct graph, so
 *  its first access is genuinely cold no matter which tests ran
 *  before it in this process (the store is process-wide). */
graph::CsrGraph
testGraph(std::uint64_t seed)
{
    return graph::generateChungLu(600, 7000, 150, 2.0, seed, "store");
}

/** The tensor stride and the GPM root stride both at `stride` (each
 *  workload reads only its own). */
RunOptions
strided(unsigned stride)
{
    RunOptions options;
    options.stride = stride;
    options.rootStride = stride;
    return options;
}

tensor::SparseMatrix
testMatrix(std::uint32_t rows, std::uint32_t cols, std::uint64_t seed,
           const char *name)
{
    return tensor::generateMatrix(rows, cols, rows * cols / 4,
                                  tensor::MatrixStructure::Uniform, seed,
                                  name);
}

ArtifactStore::CaptureFn
gpmCapture(const graph::CsrGraph &g, gpm::GpmApp app)
{
    return [&g, app](trace::TraceRecorder &recorder) {
        gpm::PlanExecutor executor(g, recorder);
        return executor.runMany(gpm::gpmAppPlans(app)).embeddings;
    };
}

} // namespace

TEST(ArtifactStore, CompareColdWarmBitIdentical)
{
    Machine machine;
    const auto g = testGraph(101);
    const auto req = RunRequest::gpm(gpm::GpmApp::T, g);
    const auto cpu = test::directRun(req, Substrate::Cpu);
    const auto sc = test::directRun(req, Substrate::SparseCore);
    const auto cold = machine.compare(req);
    const auto warm = machine.compare(req);

    // Same result, same cycles, same breakdowns as direct execution —
    // the store only moves host wall-clock.
    for (const auto *cmp : {&cold, &warm}) {
        EXPECT_EQ(cmp->functionalResult, cpu.functionalResult);
        EXPECT_EQ(cmp->functionalResult, sc.functionalResult);
        EXPECT_EQ(cmp->baseline.cycles, cpu.cycles);
        EXPECT_EQ(cmp->baseline.breakdown.cycles, cpu.breakdown.cycles);
        EXPECT_EQ(cmp->accelerated.cycles, sc.cycles);
        EXPECT_EQ(cmp->accelerated.breakdown.cycles,
                  sc.breakdown.cycles);
    }
    EXPECT_EQ(warm.trace.events, cold.trace.events);
    EXPECT_FALSE(cold.trace.traceCacheHit);
    EXPECT_TRUE(warm.trace.traceCacheHit);
}

TEST(ArtifactStore, RunColdWarmBitIdentical)
{
    Machine machine;
    const auto g = testGraph(102);
    const auto req = RunRequest::gpm(gpm::GpmApp::TT, g);
    for (const Substrate substrate :
         {Substrate::Cpu, Substrate::SparseCore}) {
        const auto ref = test::directRun(req, substrate);
        const auto cold = machine.run(req, substrate);
        const auto warm = machine.run(req, substrate);
        EXPECT_EQ(cold.functionalResult, ref.functionalResult);
        EXPECT_EQ(warm.functionalResult, ref.functionalResult);
        EXPECT_EQ(cold.cycles, ref.cycles);
        EXPECT_EQ(warm.cycles, ref.cycles);
        EXPECT_TRUE(warm.trace.traceCacheHit);
    }
}

TEST(ArtifactStore, FsmColdWarmBitIdentical)
{
    Machine machine;
    const auto lg = graph::LabeledGraph::withRandomLabels(
        testGraph(103), 4, 77);
    const auto req = RunRequest::fsm(lg, 2);
    const auto cpu = test::directRun(req, Substrate::Cpu);
    const auto sc = test::directRun(req, Substrate::SparseCore);
    const auto cold = machine.compare(req);
    const auto warm = machine.compare(req);
    for (const auto *cmp : {&cold, &warm}) {
        EXPECT_EQ(cmp->functionalResult, cpu.functionalResult);
        EXPECT_EQ(cmp->baseline.cycles, cpu.cycles);
        EXPECT_EQ(cmp->accelerated.cycles, sc.cycles);
    }
    EXPECT_FALSE(cold.trace.traceCacheHit);
    EXPECT_TRUE(warm.trace.traceCacheHit);
}

TEST(ArtifactStore, ContentKeyedAcrossGraphObjects)
{
    // Two distinct CsrGraph objects with identical content share one
    // cache entry: the key is the content fingerprint, not the
    // object address.
    Machine machine;
    const auto g1 = testGraph(104);
    const auto g2 = testGraph(104);
    ASSERT_EQ(g1.fingerprint(), g2.fingerprint());

    const auto first = machine.compare(
        RunRequest::gpm(gpm::GpmApp::C4, g1));
    const auto second = machine.compare(
        RunRequest::gpm(gpm::GpmApp::C4, g2));
    EXPECT_TRUE(second.trace.traceCacheHit);
    EXPECT_EQ(second.functionalResult, first.functionalResult);
    EXPECT_EQ(second.baseline.cycles, first.baseline.cycles);
    EXPECT_EQ(second.accelerated.cycles, first.accelerated.cycles);
}

TEST(ArtifactStore, ParallelMiningColdWarmBitIdentical)
{
    const auto g = testGraph(105);
    constexpr unsigned cores = 4;
    constexpr unsigned chunks = cores * 4; // four chunks per core

    // The reference: each root-loop chunk executed directly on a
    // fresh backend, its cycles attributed to core m % cores.
    const auto direct = [&](Substrate substrate) {
        ParallelGpmResult ref;
        ref.perCore.assign(cores, 0);
        for (unsigned m = 0; m < chunks; ++m) {
            const auto be = makeBackend(substrate, {});
            gpm::PlanExecutor executor(g, *be);
            executor.setRootRange(m, chunks);
            const auto r =
                executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::T));
            ref.embeddings += r.embeddings;
            ref.perCore[m % cores] += r.cycles;
        }
        for (const Cycles c : ref.perCore)
            ref.cycles = std::max(ref.cycles, c);
        return ref;
    };
    const ParallelGpmResult cpu = direct(Substrate::Cpu);
    const ParallelGpmResult sc = direct(Substrate::SparseCore);

    const auto before = ArtifactStore::global().stats();
    const auto r_cold =
        mineParallel(gpm::GpmApp::T, g, cores, Substrate::SparseCore);
    const auto r_warm =
        mineParallel(gpm::GpmApp::T, g, cores, Substrate::SparseCore);
    const auto after = ArtifactStore::global().stats();
    EXPECT_EQ(after.traces.misses, before.traces.misses + chunks);
    EXPECT_EQ(after.traces.hits, before.traces.hits + chunks);
    for (const auto *r : {&r_cold, &r_warm}) {
        EXPECT_EQ(r->embeddings, sc.embeddings);
        EXPECT_EQ(r->cycles, sc.cycles);
        EXPECT_EQ(r->perCore, sc.perCore);
    }
    // Chunk m of n is keyed as the run key plus /c<m>of<n>.
    const std::string run_key =
        traceKey(RunRequest::gpm(gpm::GpmApp::T, g));
    for (unsigned m = 0; m < chunks; ++m)
        EXPECT_NE(ArtifactStore::global().peekTrace(
                      run_key + "/c" + std::to_string(m) + "of" +
                      std::to_string(chunks)),
                  nullptr)
            << m;

    // The chunk keys name no substrate, so a CPU run replays the
    // captures the SparseCore runs left: one hit per chunk, no miss.
    const auto before_cpu = ArtifactStore::global().stats();
    const auto r_cpu =
        mineParallel(gpm::GpmApp::T, g, cores, Substrate::Cpu);
    const auto after_cpu = ArtifactStore::global().stats();
    EXPECT_EQ(after_cpu.traces.misses, before_cpu.traces.misses);
    EXPECT_EQ(after_cpu.traces.hits, before_cpu.traces.hits + chunks);
    EXPECT_EQ(r_cpu.embeddings, cpu.embeddings);
    EXPECT_EQ(r_cpu.cycles, cpu.cycles);
    EXPECT_EQ(r_cpu.perCore, cpu.perCore);
}

TEST(ArtifactStore, WarmHitsSkipCaptureAndCompile)
{
    // Stats-level proof of the build-once contract: the second
    // compare() of one (app, dataset) adds one trace hit and no new
    // miss. The captured program is the entry, so there is no
    // program build to count.
    Machine machine;
    const auto g = testGraph(106);
    machine.compare(RunRequest::gpm(gpm::GpmApp::TC, g));
    const auto before = ArtifactStore::global().stats();
    machine.compare(RunRequest::gpm(gpm::GpmApp::TC, g));
    const auto after = ArtifactStore::global().stats();
    EXPECT_EQ(after.traces.misses, before.traces.misses);
    EXPECT_EQ(after.traces.hits, before.traces.hits + 1);
    EXPECT_EQ(after.traces.entries, before.traces.entries);
    EXPECT_EQ(after.programs.hits + after.programs.misses, 0u);
}

TEST(ArtifactStore, OneEntryPerKeySizedByItsProgram)
{
    // A keyed prepare() leaves one entry per key: the captured
    // program plus its functional result, charged at the program's
    // own bytes, and the program the caller replays is that entry.
    ArtifactStore &store = ArtifactStore::global();
    store.clear();
    const auto g = testGraph(111);
    auto base = testGraph(112);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 4);
    const graph::LabeledGraph lg(std::move(base), labels);

    const std::string gpm_key =
        traceKey(RunRequest::gpm(gpm::GpmApp::T, g));
    const std::string fsm_key = traceKey(RunRequest::fsm(lg, 300));
    const Prepared gpm_run =
        prepare(gpm_key, gpmCapture(g, gpm::GpmApp::T), false);
    const Prepared fsm_run =
        prepare(fsm_key,
                [&](trace::TraceRecorder &recorder) {
                    return gpm::runFsm(lg, recorder, 300).totalFrequent();
                },
                false);

    const ArtifactStoreStats stats = store.stats();
    EXPECT_EQ(stats.traces.entries, 2u);
    std::size_t want = 0;
    for (const Prepared *p : {&gpm_run, &fsm_run}) {
        EXPECT_EQ(p->program.get(), &p->cached->trace);
        want += p->program->memoryBytes() + sizeof(std::uint64_t);
    }
    EXPECT_EQ(stats.traces.bytes, want);
    EXPECT_EQ(store.peekTrace(gpm_key), gpm_run.cached);
    EXPECT_EQ(store.peekTrace(fsm_key), fsm_run.cached);
    EXPECT_EQ(stats.programs.hits + stats.programs.misses, 0u);
    EXPECT_EQ(stats.programs.entries, 0u);
    EXPECT_EQ(stats.programs.bytes, 0u);

    // The program() forwarder shares the resident entry and copies
    // anything else.
    bool copied = true;
    EXPECT_EQ(store.program(gpm_key, gpm_run.cached->trace, &copied),
              gpm_run.program);
    EXPECT_FALSE(copied);
    const trace::BytecodeProgram other = gpm_run.cached->trace;
    EXPECT_NE(store.program(gpm_key, other, &copied), gpm_run.program);
    EXPECT_TRUE(copied);
}

TEST(ArtifactStore, EvictionBoundsBytesButPinsInUseArtifacts)
{
    // A 1-byte store: everything is over budget. A trace the caller
    // still holds must survive arbitrary pressure; unreferenced ones
    // are evicted as new artifacts arrive.
    ArtifactStore store(1);
    const auto g = testGraph(107);

    const auto pinned =
        store.trace("pin", gpmCapture(g, gpm::GpmApp::T));
    ASSERT_NE(pinned, nullptr);
    store.trace("b", gpmCapture(g, gpm::GpmApp::TT));
    store.trace("c", gpmCapture(g, gpm::GpmApp::TC));

    const auto mid = store.stats();
    EXPECT_GE(mid.traces.evictions, 1u);

    // The pinned trace is still resident (a hit, not a rebuild) ...
    store.trace("pin", gpmCapture(g, gpm::GpmApp::T));
    const auto after_pin = store.stats();
    EXPECT_EQ(after_pin.traces.hits, mid.traces.hits + 1);
    EXPECT_EQ(after_pin.traces.misses, mid.traces.misses);

    // ... while the unpinned one was dropped and rebuilds on demand.
    store.trace("b", gpmCapture(g, gpm::GpmApp::TT));
    const auto after_b = store.stats();
    EXPECT_EQ(after_b.traces.misses, after_pin.traces.misses + 1);
}

TEST(ArtifactStore, ConcurrentRequestsCaptureOnce)
{
    // Threads hammering the same keys: each (key) capture runs
    // exactly once; everyone shares the result. Runs under TSan in
    // check.sh.
    ArtifactStore store(0);
    const auto g = testGraph(108);
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::vector<std::uint64_t> results(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const auto cached =
                store.trace("shared", gpmCapture(g, gpm::GpmApp::T));
            results[t] =
                cached->functionalResult + cached->trace.codeBytes();
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[t], results[0]);
    const auto stats = store.stats();
    EXPECT_EQ(stats.traces.misses, 1u);
    EXPECT_EQ(stats.traces.entries, 1u);
    EXPECT_EQ(stats.traces.hits,
              static_cast<std::uint64_t>(kThreads) - 1);
}

TEST(ArtifactStore, ConcurrentFirstReplaysBuildTheSuCostColumnOnce)
{
    // Concurrent first SparseCore replays of one program share one
    // build of its SU cost column, and each reads it to the cycles of
    // direct execution. Runs under TSan in check.sh.
    const auto g = testGraph(112);
    const auto req = RunRequest::gpm(gpm::GpmApp::C4, g);
    const Prepared prepared = prepare(req, false);
    const arch::SparseCoreConfig config;
    const Cycles direct =
        test::directRun(req, Substrate::SparseCore, config).cycles;

    ArtifactStore &store = ArtifactStore::global();
    const CacheStats before = store.stats().suCosts;
    constexpr int kThreads = 6;
    std::vector<Cycles> cycles(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            cycles[t] =
                replay(prepared, Substrate::SparseCore, config).cycles;
        });
    for (auto &th : threads)
        th.join();
    for (const Cycles c : cycles)
        EXPECT_EQ(c, direct);
    const CacheStats after = store.stats().suCosts;
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits,
              static_cast<std::uint64_t>(kThreads) - 1);
    EXPECT_EQ(store.suCosts(prepared.key, *prepared.program,
                            config.suWindow)
                  ->entries.size(),
              prepared.program->numSuOps());
}

TEST(ArtifactStore, KeysEncodeContentAndVersions)
{
    const auto g1 = testGraph(109);
    const auto g2 = testGraph(110);
    const auto key = [](gpm::GpmApp app, const graph::CsrGraph &g,
                        unsigned stride) {
        return traceKey(RunRequest::gpm(app, g, strided(stride)));
    };
    const auto k1 = key(gpm::GpmApp::T, g1, 1);
    EXPECT_EQ(k1.rfind("gpm/T/g", 0), 0u);
    EXPECT_NE(k1, key(gpm::GpmApp::T, g2, 1)); // different content
    EXPECT_NE(k1, key(gpm::GpmApp::TT, g1, 1));
    EXPECT_NE(k1, key(gpm::GpmApp::T, g1, 2));

    // Verdict and summary keys derive from the trace key plus the
    // capacity or arch point they were computed at.
    EXPECT_NE(ArtifactStore::verdictKey(k1, 16), k1);
    EXPECT_NE(ArtifactStore::verdictKey(k1, 16),
              ArtifactStore::verdictKey(k1, 8));
    arch::SparseCoreConfig narrow;
    narrow.numSus = 1;
    EXPECT_NE(ArtifactStore::summaryKey(k1, arch::SparseCoreConfig{}),
              ArtifactStore::summaryKey(k1, narrow));
}

TEST(ArtifactStore, TensorKeysAreContentKeyed)
{
    // spmspm, TTV and TTM keys follow everything their capture reads:
    // the algorithm, the stride and each operand's content. Identical
    // operands under different names share one key and one capture.
    using kernels::SpmspmAlgorithm;
    const auto a = testMatrix(24, 24, 41, "A");
    const auto a_twin = testMatrix(24, 24, 41, "twin");
    const auto b = testMatrix(24, 24, 42, "B");
    ASSERT_EQ(a.fingerprint(), a_twin.fingerprint());
    const auto spmspm = [](const tensor::SparseMatrix &x,
                           const tensor::SparseMatrix &y,
                           SpmspmAlgorithm algorithm, unsigned stride) {
        return traceKey(RunRequest::spmspm(x, y, algorithm,
                                           strided(stride)));
    };
    const std::string mm = spmspm(a, b, SpmspmAlgorithm::Gustavson, 1);
    EXPECT_EQ(mm.rfind("spmspm/gustavson/a", 0), 0u);
    EXPECT_NE(mm, spmspm(a, b, SpmspmAlgorithm::Inner, 1));
    EXPECT_NE(mm, spmspm(a, b, SpmspmAlgorithm::Gustavson, 2));
    EXPECT_NE(mm, spmspm(b, b, SpmspmAlgorithm::Gustavson, 1));
    EXPECT_NE(mm, spmspm(a, a, SpmspmAlgorithm::Gustavson, 1));
    EXPECT_EQ(mm, spmspm(a_twin, b, SpmspmAlgorithm::Gustavson, 1));

    const auto t = tensor::generateTensor(10, 8, 24, 160, 43, "T");
    const auto t_twin = tensor::generateTensor(10, 8, 24, 160, 43, "twin");
    const auto t_other = tensor::generateTensor(10, 8, 24, 160, 44, "T");
    ASSERT_EQ(t.fingerprint(), t_twin.fingerprint());
    const std::vector<Value> v(24, 0.5);
    std::vector<Value> v_other = v;
    v_other.back() = 0.25;
    const std::string tv = traceKey(RunRequest::ttv(t, v, strided(1)));
    EXPECT_EQ(tv.rfind("ttv/t", 0), 0u);
    EXPECT_NE(tv, traceKey(RunRequest::ttv(t_other, v, strided(1))));
    EXPECT_NE(tv, traceKey(RunRequest::ttv(t, v_other, strided(1))));
    EXPECT_NE(tv, traceKey(RunRequest::ttv(t, v, strided(2))));
    EXPECT_EQ(tv, traceKey(RunRequest::ttv(t_twin, v, strided(1))));

    const auto m = testMatrix(6, 24, 45, "M");
    const auto m_twin = testMatrix(6, 24, 45, "twin");
    const auto m_other = testMatrix(6, 24, 46, "M");
    const std::string tm = traceKey(RunRequest::ttm(t, m, strided(1)));
    EXPECT_EQ(tm.rfind("ttm/t", 0), 0u);
    EXPECT_NE(tm, traceKey(RunRequest::ttm(t_other, m, strided(1))));
    EXPECT_NE(tm, traceKey(RunRequest::ttm(t, m_other, strided(1))));
    EXPECT_NE(tm, traceKey(RunRequest::ttm(t, m, strided(2))));
    EXPECT_EQ(tm, traceKey(RunRequest::ttm(t_twin, m_twin, strided(1))));

    // The twins hit the first object's capture.
    const Machine machine;
    const std::vector<std::pair<RunRequest, RunRequest>> pairs = {
        {RunRequest::spmspm(a, b, SpmspmAlgorithm::Gustavson,
                            strided(1)),
         RunRequest::spmspm(a_twin, b, SpmspmAlgorithm::Gustavson,
                            strided(1))},
        {RunRequest::ttv(t, v, strided(1)),
         RunRequest::ttv(t_twin, v, strided(1))},
        {RunRequest::ttm(t, m, strided(1)),
         RunRequest::ttm(t_twin, m_twin, strided(1))}};
    for (const auto &[original, twin] : pairs) {
        const auto first = machine.compare(original);
        const auto second = machine.compare(twin);
        EXPECT_FALSE(first.trace.traceCacheHit) << traceKey(original);
        EXPECT_TRUE(second.trace.traceCacheHit) << traceKey(original);
        EXPECT_EQ(second.functionalResult, first.functionalResult);
        EXPECT_EQ(second.baseline.cycles, first.baseline.cycles);
        EXPECT_EQ(second.accelerated.cycles, first.accelerated.cycles);
    }
}

TEST(ArtifactStore, TensorRunColdWarmBitIdentical)
{
    // A second run() of one tensor request replays the stored
    // program; cold and warm runs agree bit for bit with direct
    // execution.
    const auto a = testMatrix(20, 28, 47, "A");
    const auto b = testMatrix(28, 20, 48, "B");
    const auto t = tensor::generateTensor(12, 10, 16, 200, 49, "T");
    const std::vector<Value> vec(16, 1.25);
    const auto m = testMatrix(8, 16, 50, "M");
    const std::vector<RunRequest> requests = {
        RunRequest::spmspm(a, b, kernels::SpmspmAlgorithm::Outer,
                           strided(1)),
        RunRequest::ttv(t, vec, strided(1)),
        RunRequest::ttm(t, m, strided(1))};
    const Machine machine;
    for (const RunRequest &req : requests) {
        const auto ref = test::directRun(req, Substrate::SparseCore);
        const auto cold = machine.run(req, Substrate::SparseCore);
        const auto warm = machine.run(req, Substrate::SparseCore);
        EXPECT_FALSE(cold.trace.traceCacheHit) << traceKey(req);
        EXPECT_TRUE(warm.trace.traceCacheHit) << traceKey(req);
        for (const RunResult *r : {&cold, &warm}) {
            EXPECT_EQ(r->functionalResult, ref.functionalResult);
            EXPECT_EQ(r->cycles, ref.cycles);
            EXPECT_EQ(r->breakdown.cycles, ref.breakdown.cycles);
        }
    }
}
