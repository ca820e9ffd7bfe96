/**
 * @file
 * Tests for the shared execution pipeline (api/pipeline.hh): prepare()
 * verifies on every call — including when the program is already
 * resident in the store — keyed and local preparation produce the
 * same program and result, a keyed program is the store entry itself,
 * and TraceStats report hits and misses per call. (makeBackend()'s
 * config plumbing is pinned by the non-default arch point of
 * tests/cycles_golden_test.cc.)
 */

#include <gtest/gtest.h>

#include "analysis/diagnostics.hh"
#include "api/machine.hh"
#include "api/pipeline.hh"
#include "gpm/executor.hh"
#include "test_util.hh"
#include "trace/recorder.hh"

using namespace sc;
using namespace sc::api;

namespace {

/** A capture with a stream-lifetime error (double free). */
std::uint64_t
doubleFree(trace::TraceRecorder &rec)
{
    rec.begin();
    const auto a = rec.streamLoad(0x1000, 3, 0, std::vector<Key>{1, 2, 3});
    rec.streamFree(a);
    rec.streamFree(a);
    return 0;
}

ArtifactStore::CaptureFn
captureTriangles(const graph::CsrGraph &g)
{
    return [&g](trace::TraceRecorder &rec) {
        gpm::PlanExecutor executor(g, rec);
        return executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::T))
            .embeddings;
    };
}

} // namespace

TEST(Pipeline, VerifyRunsOnWarmProgramHits)
{
    // A program captured unverified into the store must not let a
    // verify=true request skip the check: run and compare both reject
    // the poisoned program before any backend sees it.
    ArtifactStore &store = ArtifactStore::global();
    store.clear();
    const graph::CsrGraph g = test::randomTestGraph(30, 120, 58);
    const std::string key =
        ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g, 1);
    store.trace(key, doubleFree);
    const ArtifactStoreStats planted = store.stats();

    RunOptions options;
    options.verify = true;
    options.artifactCache = true;
    const Machine machine;
    const auto req = RunRequest::gpm(gpm::GpmApp::T, g, options);
    EXPECT_THROW(machine.run(req, Substrate::Cpu), analysis::VerifyError);
    EXPECT_THROW(machine.compare(req), analysis::VerifyError);
    // Both rejections came from the resident entry, not a recapture.
    EXPECT_EQ(store.stats().traces.misses, planted.traces.misses);
    EXPECT_EQ(store.stats().traces.hits, planted.traces.hits + 2);

    // Drop the poisoned trace so later tests rebuild the real one.
    store.clear();
}

TEST(Pipeline, LocalCaptureVerifiesWhenAsked)
{
    EXPECT_THROW(prepare("", doubleFree, true), analysis::VerifyError);
    const Prepared unchecked = prepare("", doubleFree, false);
    EXPECT_GT(unchecked.program->numEvents(), 0u);
    EXPECT_GT(unchecked.program->codeBytes(), 0u);
}

TEST(Pipeline, KeyedAndLocalPrepareAgree)
{
    ArtifactStore::global().clear();
    const graph::CsrGraph g = test::randomTestGraph(60, 400, 59);
    const std::string key =
        ArtifactStore::gpmTraceKey(gpm::GpmApp::T, g, 1);

    const ArtifactStoreStats before = ArtifactStore::global().stats();
    const Prepared local = prepare("", captureTriangles(g), false);
    const Prepared cold = prepare(key, captureTriangles(g), false);
    const Prepared warm = prepare(key, captureTriangles(g), false);

    EXPECT_EQ(local.functionalResult(), cold.functionalResult());
    EXPECT_EQ(local.program->code(), cold.program->code());
    EXPECT_EQ(cold.program, warm.program); // the shared store entry
    EXPECT_EQ(warm.program.get(),
              &ArtifactStore::global().peekTrace(key)->trace);

    for (const Prepared *p : {&local, &cold}) {
        EXPECT_FALSE(p->stats.traceCacheHit);
        EXPECT_EQ(p->stats.replayMode, "bytecode");
        EXPECT_EQ(p->stats.events, p->program->numEvents());
        EXPECT_EQ(p->stats.arenaBytes, p->program->arenaBytes());
        EXPECT_EQ(p->stats.bytecodeBytes, p->program->codeBytes());
    }
    EXPECT_TRUE(warm.stats.traceCacheHit);
    EXPECT_EQ(warm.stats.captureSeconds, 0.0);
    const ArtifactStoreStats stats = ArtifactStore::global().stats();
    EXPECT_EQ(stats.traces.misses, before.traces.misses + 1);
    EXPECT_EQ(stats.traces.hits, before.traces.hits + 1);
    ArtifactStore::global().clear();
}
