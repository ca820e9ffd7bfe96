/**
 * @file
 * The "compiler output is verifier-clean" pin: every event stream the
 * GPM planner, the FSM miner and the tensor kernels emit — captured
 * through a TraceRecorder — must pass the stream-lifetime verifier
 * with zero diagnostics, and the committed golden program must stay
 * clean too. A planner or kernel change that starts leaking streams,
 * double-freeing or misusing (key,value) ancestry fails here with the
 * rule-tagged diagnostic, not as a mystery in a timing model.
 */

#include <gtest/gtest.h>

#include "analysis/trace_check.hh"
#include "gpm/apps.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/bytecode.hh"
#include "trace/recorder.hh"

using namespace sc;

namespace {

void
expectClean(const trace::BytecodeProgram &bc, const std::string &label)
{
    const auto report = analysis::verifyBytecode(bc);
    EXPECT_TRUE(report.clean())
        << label << ":\n"
        << report.format();
}

} // namespace

TEST(VerifySweep, AllGpmAppEmissionsAreClean)
{
    const auto g = test::randomTestGraph(100, 700, 5);
    for (const gpm::GpmApp app : gpm::allGpmApps()) {
        trace::TraceRecorder rec;
        gpm::PlanExecutor executor(g, rec);
        executor.runMany(gpm::gpmAppPlans(app));
        expectClean(rec.takeTrace(),
                    std::string("gpm ") + gpm::gpmAppName(app));
    }
}

TEST(VerifySweep, FsmEmissionIsClean)
{
    auto base = test::randomTestGraph(60, 350, 13);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);

    trace::TraceRecorder rec;
    gpm::runFsm(lg, rec, 2);
    expectClean(rec.takeTrace(), "fsm");
}

TEST(VerifySweep, TensorKernelEmissionsAreClean)
{
    const auto a = tensor::generateMatrix(
        30, 40, 220, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 200, tensor::MatrixStructure::Uniform, 32, "B");
    for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                 kernels::SpmspmAlgorithm::Outer,
                                 kernels::SpmspmAlgorithm::Gustavson}) {
        trace::TraceRecorder rec;
        kernels::runSpmspm(a, b, algorithm, rec);
        expectClean(rec.takeTrace(), "spmspm");
    }

    const auto t = tensor::generateTensor(15, 12, 24, 300, 33, "T");
    const std::vector<Value> vec(24, 0.5);
    {
        trace::TraceRecorder rec;
        kernels::runTtv(t, vec, rec);
        expectClean(rec.takeTrace(), "ttv");
    }
    const auto m = tensor::generateMatrix(
        10, 24, 110, tensor::MatrixStructure::Uniform, 34, "M");
    {
        trace::TraceRecorder rec;
        kernels::runTtm(t, m, rec);
        expectClean(rec.takeTrace(), "ttm");
    }
}

TEST(VerifySweep, CommittedGoldenTraceIsClean)
{
    const auto bc = trace::BytecodeProgram::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    const auto report = analysis::verifyBytecode(bc);
    EXPECT_TRUE(report.clean()) << report.format();
}
