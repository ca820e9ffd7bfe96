/**
 * @file
 * Tests for the shared execution pipeline (api/pipeline.hh): prepare()
 * verifies on every call — a cold capture as well as a program
 * already resident in the store — the prepared program and result
 * equal a local capture of the same workload, the program is the
 * store entry itself, and TraceStats report hits and misses per call.
 * (makeBackend()'s config plumbing is pinned by the non-default arch
 * point of tests/cycles_golden_test.cc.)
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
    RunOptions options;
    options.verify = true;
    const auto req = RunRequest::gpm(gpm::GpmApp::T, g, options);
    store.trace(traceKey(req), doubleFree);
    const ArtifactStoreStats planted = store.stats();

    const Machine machine;
    EXPECT_THROW(machine.run(req, Substrate::Cpu), analysis::VerifyError);
    EXPECT_THROW(machine.compare(req), analysis::VerifyError);
    // Both rejections came from the resident entry, not a recapture.
    EXPECT_EQ(store.stats().traces.misses, planted.traces.misses);
    EXPECT_EQ(store.stats().traces.hits, planted.traces.hits + 2);

    // Drop the poisoned trace so later tests rebuild the real one.
    store.clear();
}

TEST(Pipeline, ColdCaptureVerifiesWhenAsked)
{
    // A key's first prepare() captures and checks the new program; a
    // verify=false call on another key keeps it unchecked.
    ArtifactStore &store = ArtifactStore::global();
    store.clear();
    EXPECT_THROW(prepare("double-free/checked", doubleFree, true),
                 analysis::VerifyError);
    const Prepared unchecked =
        prepare("double-free/unchecked", doubleFree, false);
    EXPECT_FALSE(unchecked.stats.traceCacheHit);
    EXPECT_GT(unchecked.program->numEvents(), 0u);
    EXPECT_GT(unchecked.program->codeBytes(), 0u);
    store.clear();
}

TEST(Pipeline, KeyedAndLocalPrepareAgree)
{
    // prepare() gives the program and result that executing the
    // request into a local recorder gives, and a warm call hands out
    // the same store entry.
    ArtifactStore::global().clear();
    const graph::CsrGraph g = test::randomTestGraph(60, 400, 59);
    const auto req = RunRequest::gpm(gpm::GpmApp::T, g);
    const std::string key = traceKey(req);

    trace::TraceRecorder recorder;
    const std::uint64_t local_result =
        execute(req, recorder).functionalResult;
    const trace::BytecodeProgram local = recorder.takeTrace();

    const ArtifactStoreStats before = ArtifactStore::global().stats();
    const Prepared cold = prepare(key, captureTriangles(g), false);
    const Prepared warm = prepare(key, captureTriangles(g), false);

    EXPECT_EQ(cold.functionalResult(), local_result);
    EXPECT_EQ(cold.program->code(), local.code());
    EXPECT_EQ(cold.program, warm.program); // the shared store entry
    EXPECT_EQ(warm.program.get(),
              &ArtifactStore::global().peekTrace(key)->trace);

    for (const Prepared *p : {&cold, &warm}) {
        EXPECT_EQ(p->stats.replayMode, "bytecode");
        EXPECT_EQ(p->stats.events, p->program->numEvents());
        EXPECT_EQ(p->stats.arenaBytes, p->program->arenaBytes());
        EXPECT_EQ(p->stats.bytecodeBytes, p->program->codeBytes());
    }
    EXPECT_FALSE(cold.stats.traceCacheHit);
    EXPECT_TRUE(warm.stats.traceCacheHit);
    EXPECT_EQ(warm.stats.captureSeconds, 0.0);
    const ArtifactStoreStats stats = ArtifactStore::global().stats();
    EXPECT_EQ(stats.traces.misses, before.traces.misses + 1);
    EXPECT_EQ(stats.traces.hits, before.traces.hits + 1);
    ArtifactStore::global().clear();
}
