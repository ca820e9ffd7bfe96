/**
 * @file
 * The SU cost column (trace::suCostColumn, Engine::useSuCosts): a
 * SparseCore replay that reads its SU costs from the program's column
 * gives the cycles, breakdown and every counter of direct execution
 * on a fresh backend — for the nested and explicit-loop GPM apps at
 * SU windows 8, 16 and 32, with one column shared across SU counts,
 * bandwidths and the nested flag, and for spmspm, TTV and TTM. A
 * column is only ever read at the window it was built at, and a
 * replay that reads too few or too many entries panics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/artifact_store.hh"
#include "api/pipeline.hh"
#include "backend/sparsecore_backend.hh"
#include "graph/generators.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;
using api::RunRequest;

namespace {

trace::BytecodeProgram
capture(const RunRequest &req)
{
    trace::TraceRecorder recorder;
    api::execute(req, recorder);
    return recorder.takeTrace();
}

/** Cycles, breakdown and every core and engine counter. */
test::Counts
everything(backend::SparseCoreBackend &be)
{
    test::Counts out = test::coreCounts(be.engine().core());
    out.merge(test::archCounts(be.engine()));
    const sim::CycleBreakdown bd = be.breakdown();
    for (unsigned c = 0;
         c < static_cast<unsigned>(sim::CycleClass::NumClasses); ++c) {
        const auto cls = static_cast<sim::CycleClass>(c);
        out[std::string("breakdown.") + sim::cycleClassName(cls)] =
            bd[cls];
    }
    return out;
}

/** Replay `bc` on a fresh backend under `config` reading `column`,
 *  and direct-execute `req` on another: everything must match. */
void
expectColumnReplayMatchesDirect(
    const RunRequest &req, const trace::BytecodeProgram &bc,
    const std::shared_ptr<const arch::SuCostColumn> &column,
    const arch::SparseCoreConfig &config)
{
    backend::SparseCoreBackend direct(config);
    const api::RunResult reference = api::execute(req, direct);
    backend::SparseCoreBackend replayed(config);
    replayed.engine().useSuCosts(column);
    const trace::ReplayResult r =
        trace::replayCompiled(bc, replayed, /*verify=*/false);
    EXPECT_EQ(r.cycles, reference.cycles);
    EXPECT_EQ(everything(replayed), everything(direct));
}

} // namespace

TEST(SuCostColumn, GpmReplayMatchesDirectExecution)
{
    using gpm::GpmApp;
    const auto g = graph::generateChungLu(300, 2400, 60, 2.1, 17, "col");
    for (const GpmApp app : {GpmApp::T, GpmApp::TS, GpmApp::C4,
                             GpmApp::C4S, GpmApp::C5, GpmApp::C5S}) {
        const RunRequest req = RunRequest::gpm(app, g);
        const trace::BytecodeProgram bc = capture(req);
        for (const unsigned window : {8u, 16u, 32u}) {
            SCOPED_TRACE(std::string(gpm::gpmAppName(app)) + " window " +
                         std::to_string(window));
            const auto column = std::make_shared<const arch::SuCostColumn>(
                trace::suCostColumn(bc, window));
            EXPECT_EQ(column->window, window);
            EXPECT_EQ(column->entries.size(), bc.numSuOps());
            // One column serves every point at its window: the SU
            // count, the bandwidth and the nested flag (which lowers
            // S_NESTINTER to the explicit loop) leave it unchanged.
            arch::SparseCoreConfig config;
            config.suWindow = window;
            expectColumnReplayMatchesDirect(req, bc, column, config);
            arch::SparseCoreConfig one_su = config;
            one_su.numSus = 1;
            one_su.aggregateBandwidth = 8;
            expectColumnReplayMatchesDirect(req, bc, column, one_su);
            arch::SparseCoreConfig lowered = config;
            lowered.nestedIntersection = false;
            expectColumnReplayMatchesDirect(req, bc, column, lowered);
        }
    }
}

TEST(SuCostColumn, TensorReplayMatchesDirectExecution)
{
    using kernels::SpmspmAlgorithm;
    const auto a = tensor::generateMatrix(
        40, 40, 300, tensor::MatrixStructure::Uniform, 3, "A");
    const auto b = tensor::generateMatrix(
        40, 40, 300, tensor::MatrixStructure::Uniform, 4, "B");
    const auto t = tensor::generateTensor(10, 8, 24, 160, 43, "T");
    const std::vector<Value> v(24, 0.5);
    const auto m = tensor::generateMatrix(
        6, 24, 36, tensor::MatrixStructure::Uniform, 45, "M");
    const RunRequest requests[] = {
        RunRequest::spmspm(a, b, SpmspmAlgorithm::Inner),
        RunRequest::spmspm(a, b, SpmspmAlgorithm::Outer),
        RunRequest::spmspm(a, b, SpmspmAlgorithm::Gustavson),
        RunRequest::ttv(t, v),
        RunRequest::ttm(t, m),
    };
    for (const RunRequest &req : requests) {
        SCOPED_TRACE(api::traceKey(req));
        const trace::BytecodeProgram bc = capture(req);
        for (const unsigned window : {8u, 16u, 32u}) {
            arch::SparseCoreConfig config;
            config.suWindow = window;
            expectColumnReplayMatchesDirect(
                req, bc,
                std::make_shared<const arch::SuCostColumn>(
                    trace::suCostColumn(bc, window)),
                config);
        }
    }
}

TEST(SuCostColumn, BuiltAtOneWindowIsNeverReadAtAnother)
{
    const auto g = test::randomTestGraph(60, 400, 9);
    const RunRequest req = RunRequest::gpm(gpm::GpmApp::T, g);
    const trace::BytecodeProgram bc = capture(req);

    // The store keys a column by its window.
    api::ArtifactStore store(0);
    const auto w8 = store.suCosts("k", bc, 8);
    const auto w16 = store.suCosts("k", bc, 16);
    EXPECT_EQ(w8->window, 8u);
    EXPECT_EQ(w16->window, 16u);
    EXPECT_EQ(store.suCosts("k", bc, 8), w8);
    EXPECT_EQ(store.stats().suCosts.misses, 2u);
    EXPECT_EQ(store.stats().suCosts.hits, 1u);
    EXPECT_NE(store.stats().str().find("su costs 1 hits / 2 misses"),
              std::string::npos);

    // An engine refuses a column built at another window.
    backend::SparseCoreBackend be; // window 16
    EXPECT_THROW(be.engine().useSuCosts(w8), SimError);
    EXPECT_NO_THROW(be.engine().useSuCosts(w16));
}

TEST(SuCostColumn, ReplayReadingTooFewOrTooManyEntriesPanics)
{
    const auto g = test::randomTestGraph(60, 400, 10);
    const trace::BytecodeProgram bc =
        capture(RunRequest::gpm(gpm::GpmApp::T, g));
    const arch::SuCostColumn exact = trace::suCostColumn(bc, 16);
    ASSERT_FALSE(exact.entries.empty());

    const auto replayWith = [&bc](arch::SuCostColumn column) {
        backend::SparseCoreBackend be;
        be.engine().useSuCosts(
            std::make_shared<const arch::SuCostColumn>(std::move(column)));
        return trace::replayCompiled(bc, be, /*verify=*/false).cycles;
    };
    backend::SparseCoreBackend direct;
    EXPECT_EQ(replayWith(exact), trace::replayCompiled(bc, direct).cycles);

    arch::SuCostColumn short_column = exact;
    short_column.entries.pop_back();
    EXPECT_THROW(replayWith(short_column), SimError);
    arch::SuCostColumn long_column = exact;
    long_column.entries.push_back({});
    EXPECT_THROW(replayWith(long_column), SimError);
}
