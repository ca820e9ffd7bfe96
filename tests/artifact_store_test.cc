/**
 * @file
 * The ArtifactStore's contract: cached and cold paths are
 * bit-identical in functional results and simulated cycles (run(),
 * compare(), the host-parallel miners), artifacts are content-keyed
 * (two structurally identical graph objects share one trace), the
 * byte budget evicts LRU entries while pinned in-use artifacts
 * survive, and concurrent requests build each artifact exactly once.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/artifact_store.hh"
#include "api/machine.hh"
#include "api/parallel.hh"
#include "gpm/executor.hh"
#include "graph/generators.hh"

using namespace sc;
using namespace sc::api;

namespace {

/** Per-test seeds: each test gets a structurally distinct graph, so
 *  its first cache-on access is genuinely cold no matter which tests
 *  ran before it in this process (the store is process-wide). */
graph::CsrGraph
testGraph(std::uint64_t seed)
{
    return graph::generateChungLu(600, 7000, 150, 2.0, seed, "store");
}

RunOptions
withCache(bool enabled)
{
    RunOptions options;
    options.artifactCache = enabled;
    return options;
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
    const auto off = machine.compare(
        RunRequest::gpm(gpm::GpmApp::T, g, withCache(false)));
    const auto cold = machine.compare(
        RunRequest::gpm(gpm::GpmApp::T, g, withCache(true)));
    const auto warm = machine.compare(
        RunRequest::gpm(gpm::GpmApp::T, g, withCache(true)));

    // Same result, same cycles, same breakdowns — the store only
    // moves host wall-clock.
    for (const auto *cmp : {&cold, &warm}) {
        EXPECT_EQ(cmp->functionalResult, off.functionalResult);
        EXPECT_EQ(cmp->baseline.cycles, off.baseline.cycles);
        EXPECT_EQ(cmp->accelerated.cycles, off.accelerated.cycles);
        EXPECT_EQ(cmp->trace.events, off.trace.events);
    }
    EXPECT_FALSE(cold.trace.traceCacheHit);
    EXPECT_TRUE(warm.trace.traceCacheHit);
}

TEST(ArtifactStore, RunColdWarmBitIdentical)
{
    Machine machine;
    const auto g = testGraph(102);
    for (const Substrate substrate :
         {Substrate::Cpu, Substrate::SparseCore}) {
        const auto off = machine.run(
            RunRequest::gpm(gpm::GpmApp::TT, g, withCache(false)),
            substrate);
        const auto cold = machine.run(
            RunRequest::gpm(gpm::GpmApp::TT, g, withCache(true)),
            substrate);
        const auto warm = machine.run(
            RunRequest::gpm(gpm::GpmApp::TT, g, withCache(true)),
            substrate);
        EXPECT_EQ(cold.functionalResult, off.functionalResult);
        EXPECT_EQ(warm.functionalResult, off.functionalResult);
        EXPECT_EQ(cold.cycles, off.cycles);
        EXPECT_EQ(warm.cycles, off.cycles);
    }
}

TEST(ArtifactStore, FsmColdWarmBitIdentical)
{
    Machine machine;
    const auto lg = graph::LabeledGraph::withRandomLabels(
        testGraph(103), 4, 77);
    const auto off =
        machine.compare(RunRequest::fsm(lg, 2, withCache(false)));
    const auto warm1 =
        machine.compare(RunRequest::fsm(lg, 2, withCache(true)));
    const auto warm2 =
        machine.compare(RunRequest::fsm(lg, 2, withCache(true)));
    EXPECT_EQ(warm1.functionalResult, off.functionalResult);
    EXPECT_EQ(warm2.functionalResult, off.functionalResult);
    EXPECT_EQ(warm1.baseline.cycles, off.baseline.cycles);
    EXPECT_EQ(warm2.baseline.cycles, off.baseline.cycles);
    EXPECT_EQ(warm1.accelerated.cycles, off.accelerated.cycles);
    EXPECT_EQ(warm2.accelerated.cycles, off.accelerated.cycles);
    EXPECT_TRUE(warm2.trace.traceCacheHit);
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
        RunRequest::gpm(gpm::GpmApp::C4, g1, withCache(true)));
    const auto second = machine.compare(
        RunRequest::gpm(gpm::GpmApp::C4, g2, withCache(true)));
    EXPECT_TRUE(second.trace.traceCacheHit);
    EXPECT_EQ(second.functionalResult, first.functionalResult);
    EXPECT_EQ(second.baseline.cycles, first.baseline.cycles);
    EXPECT_EQ(second.accelerated.cycles, first.accelerated.cycles);
}

TEST(ArtifactStore, ParallelMiningColdWarmBitIdentical)
{
    const auto g = testGraph(105);
    HostOptions off;
    off.artifactCache = false;
    HostOptions on;
    on.artifactCache = true;

    const auto r_off =
        mineParallelSparseCore(gpm::GpmApp::T, g, 4, {}, 1, off);
    const auto r_cold =
        mineParallelSparseCore(gpm::GpmApp::T, g, 4, {}, 1, on);
    const auto r_warm =
        mineParallelSparseCore(gpm::GpmApp::T, g, 4, {}, 1, on);
    for (const auto *r : {&r_cold, &r_warm}) {
        EXPECT_EQ(r->embeddings, r_off.embeddings);
        EXPECT_EQ(r->cycles, r_off.cycles);
        EXPECT_EQ(r->perCore, r_off.perCore);
    }

    const auto c_off =
        compareParallelGpm(gpm::GpmApp::T, g, 4, {}, 1, off);
    const auto c_warm =
        compareParallelGpm(gpm::GpmApp::T, g, 4, {}, 1, on);
    EXPECT_EQ(c_warm.functionalResult, c_off.functionalResult);
    EXPECT_EQ(c_warm.baseline.cycles, c_off.baseline.cycles);
    EXPECT_EQ(c_warm.accelerated.cycles, c_off.accelerated.cycles);
}

TEST(ArtifactStore, WarmHitsSkipCaptureAndCompile)
{
    // Stats-level proof of the build-once contract: the second
    // compare() of one (app, dataset) adds a trace hit and a program
    // hit, and no new misses.
    Machine machine;
    const auto g = testGraph(106);
    const RunOptions options = withCache(true);

    machine.compare(RunRequest::gpm(gpm::GpmApp::TC, g, options));
    const auto before = ArtifactStore::global().stats();
    machine.compare(RunRequest::gpm(gpm::GpmApp::TC, g, options));
    const auto after = ArtifactStore::global().stats();
    EXPECT_EQ(after.traces.misses, before.traces.misses);
    EXPECT_EQ(after.programs.misses, before.programs.misses);
    EXPECT_EQ(after.traces.hits, before.traces.hits + 1);
    EXPECT_EQ(after.programs.hits, before.programs.hits + 1);
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
            const auto bc = store.program("shared", cached->trace);
            results[t] = cached->functionalResult + bc->codeBytes();
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[t], results[0]);
    const auto stats = store.stats();
    EXPECT_EQ(stats.traces.misses, 1u);
    EXPECT_EQ(stats.programs.misses, 1u);
    EXPECT_EQ(stats.traces.hits,
              static_cast<std::uint64_t>(kThreads) - 1);
}

TEST(ArtifactStore, EnvDefaultAndOverridesResolve)
{
    // An explicit override beats whatever SC_ARTIFACT_CACHE says;
    // nullopt falls through to the environment default.
    EXPECT_EQ(ArtifactStore::resolveEnabled(std::nullopt),
              ArtifactStore::enabledByDefault());
    EXPECT_TRUE(ArtifactStore::resolveEnabled(true));
    EXPECT_FALSE(ArtifactStore::resolveEnabled(false));
}

TEST(ArtifactStore, KeysEncodeContentAndVersions)
{
    const auto g1 = testGraph(109);
    const auto g2 = testGraph(110);
    const auto k1 = ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g1, 1);
    const auto k2 = ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g2, 1);
    EXPECT_NE(k1, k2); // different content, different key
    EXPECT_NE(k1, ArtifactStore::gpmTraceKey(gpm::GpmApp::TT, g1, 1));
    EXPECT_NE(k1, ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g1, 2));
    EXPECT_NE(ArtifactStore::gpmChunkTraceKey(gpm::GpmApp::T, g1, 1,
                                              0, 8),
              ArtifactStore::gpmChunkTraceKey(gpm::GpmApp::T, g1, 1,
                                              1, 8));
    // Program keys derive from the trace key + bytecode version.
    EXPECT_NE(ArtifactStore::programKey(k1), k1);
}
