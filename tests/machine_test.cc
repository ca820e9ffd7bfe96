/**
 * @file
 * Integration tests of the public API facade: GPM and tensor
 * comparisons end to end, configuration plumbing, report formatting,
 * and the paper's headline qualitative claims at small scale.
 */

#include <gtest/gtest.h>

#include "api/machine.hh"
#include "graph/generators.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"

using namespace sc;
using namespace sc::api;

namespace {

graph::CsrGraph
denseGraph()
{
    return graph::generateChungLu(800, 10000, 200, 2.0, 5, "dense");
}

RunOptions
withRootStride(unsigned stride)
{
    RunOptions options;
    options.rootStride = stride;
    return options;
}

} // namespace

TEST(Machine, GpmComparisonAgreesAndWins)
{
    Machine machine;
    const auto g = denseGraph();
    const Comparison cmp =
        machine.compare(RunRequest::gpm(gpm::GpmApp::T, g));
    EXPECT_GT(cmp.functionalResult, 0u);
    EXPECT_GT(cmp.speedup(), 1.0);
    EXPECT_EQ(cmp.baseline.substrate, "cpu");
    EXPECT_EQ(cmp.accelerated.substrate, "sparsecore");
}

TEST(Machine, RunMatchesCompareLegs)
{
    // run() on each substrate reproduces compare()'s two legs.
    Machine machine;
    const auto g = denseGraph();
    const auto req = RunRequest::gpm(gpm::GpmApp::T, g);
    const Comparison cmp = machine.compare(req);
    const RunResult cpu = machine.run(req, Substrate::Cpu);
    const RunResult sc = machine.run(req, Substrate::SparseCore);
    EXPECT_EQ(cpu.functionalResult, cmp.functionalResult);
    EXPECT_EQ(sc.functionalResult, cmp.functionalResult);
    EXPECT_EQ(cpu.cycles, cmp.baseline.cycles);
    EXPECT_EQ(sc.cycles, cmp.accelerated.cycles);
}

TEST(Machine, RootStridePlumbing)
{
    Machine machine;
    const auto g = denseGraph();
    const auto full = machine.run(
        RunRequest::gpm(gpm::GpmApp::T, g, withRootStride(1)),
        Substrate::SparseCore);
    const auto sampled = machine.run(
        RunRequest::gpm(gpm::GpmApp::T, g, withRootStride(4)),
        Substrate::SparseCore);
    EXPECT_LT(sampled.cycles, full.cycles);
    EXPECT_LT(sampled.functionalResult, full.functionalResult);
}

TEST(Machine, ZeroStrideIsRejected)
{
    Machine machine;
    const auto g = denseGraph();
    EXPECT_THROW(
        machine.run(
            RunRequest::gpm(gpm::GpmApp::T, g, withRootStride(0)),
            Substrate::Cpu),
        SimError);
}

TEST(Machine, NestedIntersectionSpeedsUpTriangles)
{
    // §6.3.2: the nested-intersection apps beat their *S variants.
    Machine machine;
    const auto g = denseGraph();
    const auto t = machine.run(RunRequest::gpm(gpm::GpmApp::T, g),
                               Substrate::SparseCore);
    const auto ts = machine.run(RunRequest::gpm(gpm::GpmApp::TS, g),
                                Substrate::SparseCore);
    EXPECT_EQ(t.functionalResult, ts.functionalResult);
    EXPECT_LT(t.cycles, ts.cycles);
}

TEST(Machine, DenserGraphsGetLargerSpeedups)
{
    // §6.3.2: higher average degree -> longer streams -> larger wins.
    Machine machine;
    const auto sparse =
        graph::generateChungLu(2000, 6000, 60, 2.3, 7, "sparse");
    const auto dense =
        graph::generateChungLu(2000, 40000, 400, 1.9, 8, "dense");
    const auto s_cmp =
        machine.compare(RunRequest::gpm(gpm::GpmApp::T, sparse));
    const auto d_cmp =
        machine.compare(RunRequest::gpm(gpm::GpmApp::T, dense));
    EXPECT_GT(d_cmp.speedup(), s_cmp.speedup());
}

TEST(Machine, MoreSusHelpDefaultConfig)
{
    arch::SparseCoreConfig one;
    one.numSus = 1;
    arch::SparseCoreConfig four;
    four.numSus = 4;
    const auto g = denseGraph();
    const auto req = RunRequest::gpm(gpm::GpmApp::C4, g);
    const auto r1 = Machine(one).run(req, Substrate::SparseCore);
    const auto r4 = Machine(four).run(req, Substrate::SparseCore);
    EXPECT_LT(r4.cycles, r1.cycles);
}

TEST(Machine, SpmspmComparison)
{
    // Representative density/row lengths (tiny matrices sit near
    // parity for the merge-class dataflows: per-op overhead vs the
    // CPU's workspace loop — see EXPERIMENTS.md).
    Machine machine;
    const auto a = tensor::generateMatrix(
        400, 400, 14000, tensor::MatrixStructure::Uniform, 9, "A");
    for (const auto algorithm :
         {kernels::SpmspmAlgorithm::Inner,
          kernels::SpmspmAlgorithm::Outer,
          kernels::SpmspmAlgorithm::Gustavson}) {
        const Comparison cmp =
            machine.compare(RunRequest::spmspm(a, a, algorithm));
        EXPECT_GT(cmp.speedup(), 1.0)
            << kernels::spmspmAlgorithmName(algorithm);
    }
}

TEST(Machine, TensorComparisons)
{
    Machine machine;
    const auto t = tensor::generateTensor(40, 30, 100, 3000, 11, "T");
    const auto v = tensor::generateVector(100, 12);
    EXPECT_GT(machine.compare(RunRequest::ttv(t, v)).speedup(), 1.0);
    const auto b = tensor::generateMatrix(
        16, 100, 600, tensor::MatrixStructure::Uniform, 13, "B");
    EXPECT_GT(machine.compare(RunRequest::ttm(t, b)).speedup(), 1.0);
}

TEST(Machine, FsmComparison)
{
    Machine machine;
    const auto lg = graph::LabeledGraph::withRandomLabels(
        denseGraph(), 4, 15);
    const Comparison cmp = machine.compare(RunRequest::fsm(lg, 20));
    EXPECT_GT(cmp.functionalResult, 0u);
    EXPECT_GT(cmp.speedup(), 0.8);
}

TEST(Report, FormattingContainsEverything)
{
    Comparison cmp;
    cmp.functionalResult = 42;
    cmp.baseline = {"cpu", 1000, {}};
    cmp.accelerated = {"sparsecore", 100, {}};
    const std::string text = cmp.str();
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("10.00x"), std::string::npos);
    EXPECT_NE(text.find("cpu"), std::string::npos);
}

TEST(Report, BreakdownString)
{
    sim::CycleBreakdown bd;
    bd[sim::CycleClass::Cache] = 50;
    bd[sim::CycleClass::Intersection] = 50;
    const std::string text = breakdownStr(bd);
    EXPECT_NE(text.find("Cache 50.0%"), std::string::npos);
    EXPECT_NE(text.find("Intersection 50.0%"), std::string::npos);
}
