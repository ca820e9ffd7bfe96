/**
 * @file
 * begin() is a cold reset on every timing backend: replaying one
 * program twice on one backend gives the same cycles and breakdown
 * as two fresh backends, so reusing a backend can never report
 * warm-cache or trained-predictor cycles.
 */

#include <gtest/gtest.h>

#include "api/pipeline.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "baselines/flexminer.hh"
#include "baselines/triejax.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "test_util.hh"

using namespace sc;

namespace {

void
expectSecondReplayCold(const trace::BytecodeProgram &bc,
                       backend::ExecBackend &be)
{
    const trace::ReplayResult first = trace::replayCompiled(bc, be);
    const trace::ReplayResult second = trace::replayCompiled(bc, be);
    EXPECT_GT(first.cycles, 0u) << be.name();
    EXPECT_EQ(first.cycles, second.cycles) << be.name();
    EXPECT_EQ(first.breakdown.cycles, second.breakdown.cycles)
        << be.name();
}

} // namespace

TEST(ColdBegin, ReplayTwiceOnOneBackendIsCycleIdentical)
{
    const graph::CsrGraph g = test::randomTestGraph(90, 700, 97);
    trace::TraceRecorder recorder;
    api::execute(api::RunRequest::gpm(gpm::GpmApp::TC, g), recorder);
    const trace::BytecodeProgram bc = recorder.takeTrace();

    backend::CpuBackend cpu;
    expectSecondReplayCold(bc, cpu);
    backend::SparseCoreBackend sc;
    expectSecondReplayCold(bc, sc);
    baselines::FlexMinerBackend flexminer;
    expectSecondReplayCold(bc, flexminer);
    baselines::TrieJaxBackend triejax(6, 100000);
    expectSecondReplayCold(bc, triejax);
}
