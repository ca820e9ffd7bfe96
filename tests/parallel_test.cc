/**
 * @file
 * Tests for multi-core mining (Table 2: six cores): count
 * conservation across the root split, speedup over one core, load
 * balance, the 4-motif application added on top of the paper's app
 * set, and the host-parallel runtime (determinism across host thread
 * counts, exception propagation, chunked load balance, wall-clock
 * speedup).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "api/jobspec.hh"
#include "api/machine.hh"
#include "api/parallel.hh"
#include "backend/functional_backend.hh"
#include "common/parallel_for.hh"
#include "graph/generators.hh"
#include "gpm/executor.hh"
#include "test_util.hh"

using namespace sc;
using namespace sc::api;

TEST(Parallel, CountsConservedAcrossSplit)
{
    const auto g = test::randomTestGraph(300, 3000, 91);
    Machine machine;
    const auto serial = machine.run(RunRequest::gpm(gpm::GpmApp::T, g),
                                    Substrate::SparseCore);
    for (unsigned cores : {2u, 3u, 6u}) {
        const auto par = mineParallel(gpm::GpmApp::T, g, cores,
                                      Substrate::SparseCore);
        EXPECT_EQ(par.embeddings, serial.functionalResult)
            << cores << " cores";
        EXPECT_EQ(par.perCore.size(), cores);
    }
}

TEST(Parallel, SixCoresFasterThanOne)
{
    const auto g = test::randomTestGraph(400, 6000, 92);
    const auto one =
        mineParallel(gpm::GpmApp::C4, g, 1, Substrate::SparseCore);
    const auto six =
        mineParallel(gpm::GpmApp::C4, g, 6, Substrate::SparseCore);
    EXPECT_LT(six.cycles * 2, one.cycles); // at least 2x from 6 cores
    EXPECT_GT(six.balance(), 0.3);         // interleaving balances
}

TEST(Parallel, CpuParallelMatchesCounts)
{
    const auto g = test::randomTestGraph(200, 1500, 93);
    const auto sc_par =
        mineParallel(gpm::GpmApp::TC, g, 4, Substrate::SparseCore);
    const auto cpu_par =
        mineParallel(gpm::GpmApp::TC, g, 4, Substrate::Cpu);
    EXPECT_EQ(sc_par.embeddings, cpu_par.embeddings);
    EXPECT_LT(sc_par.cycles, cpu_par.cycles);
}

TEST(Parallel, RootRangeValidation)
{
    const auto g = test::randomTestGraph(50, 100, 94);
    backend::FunctionalBackend be;
    gpm::PlanExecutor executor(g, be);
    EXPECT_THROW(executor.setRootRange(4, 4), SimError);
    EXPECT_THROW(executor.setRootRange(0, 0), SimError);
}

TEST(HostParallel, DeterministicAcrossHostThreadCounts)
{
    // Byte-identical ParallelGpmResult on either substrate whether
    // the host pool has one thread (pure inline execution) or
    // several: fixed chunk→core cycle attribution + ordered
    // reduction.
    ThreadPool one(1), many(4);
    for (std::uint64_t seed : {41ull, 42ull}) {
        const auto g = test::randomTestGraph(250, 2500, seed);
        for (const gpm::GpmApp app : {gpm::GpmApp::T, gpm::GpmApp::C4}) {
            for (const Substrate substrate :
                 {Substrate::SparseCore, Substrate::Cpu}) {
                const auto r1 =
                    mineParallel(app, g, 6, substrate, {}, 1, one);
                const auto rN =
                    mineParallel(app, g, 6, substrate, {}, 1, many);
                EXPECT_EQ(r1.embeddings, rN.embeddings);
                EXPECT_EQ(r1.cycles, rN.cycles);
                EXPECT_EQ(r1.perCore, rN.perCore)
                    << substrateName(substrate) << " seed " << seed;
            }
        }
    }
}

TEST(HostParallel, ExceptionFromSimulationTaskPropagates)
{
    // A panic inside a pool task (here: a plan with too few
    // positions) must surface in the calling thread as SimError.
    const auto g = test::randomTestGraph(50, 200, 17);
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(pool, 8,
                    [&](std::size_t) {
                        backend::FunctionalBackend be;
                        gpm::PlanExecutor executor(g, be);
                        gpm::MiningPlan bad;
                        executor.run(bad);
                    }),
        SimError);
}

TEST(HostParallel, ChunkingBalancesSkewedGraph)
{
    // Regression: on a heavily skewed degree distribution the chunked
    // split must keep the simulated-core balance well above the
    // serialized-behind-one-core regime.
    const auto g = graph::generateChungLu(600, 6000, 580, 1.6, 1234,
                                          "skewed");
    const auto r =
        mineParallel(gpm::GpmApp::T, g, 6, Substrate::SparseCore);
    EXPECT_GT(r.balance(), 0.5);
}

TEST(HostParallel, WallClockSpeedupWithFourThreads)
{
    // Acceptance: >= 2x host wall-clock speedup on a multi-core
    // mining run with >= 4 host threads vs the 1-thread path. Only
    // meaningful on hosts that actually have >= 4 hardware threads.
    if (std::thread::hardware_concurrency() < 4)
        GTEST_SKIP() << "needs >= 4 hardware threads, have "
                     << std::thread::hardware_concurrency();

    const auto g = test::randomTestGraph(500, 8000, 7);
    ThreadPool one(1), four(4);
    // Warm up caches / page in the graph.
    mineParallel(gpm::GpmApp::T, g, 6, Substrate::SparseCore, {}, 1, one);

    const auto time_run = [&](ThreadPool &pool) {
        const auto start = std::chrono::steady_clock::now();
        const auto r = mineParallel(gpm::GpmApp::C4, g, 6,
                                    Substrate::SparseCore, {}, 1, pool);
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return std::make_pair(r, s);
    };
    const auto [r1, t1] = time_run(one);
    const auto [r4, t4] = time_run(four);
    EXPECT_EQ(r1.embeddings, r4.embeddings);
    EXPECT_EQ(r1.cycles, r4.cycles);
    EXPECT_GE(t1 / t4, 2.0)
        << "1-thread " << t1 << " s vs 4-thread " << t4 << " s";
}

TEST(FourMotif, MatchesBruteForce)
{
    for (std::uint64_t seed : {5, 6}) {
        const auto g = test::randomTestGraph(18, 60, seed);
        backend::FunctionalBackend be;
        gpm::PlanExecutor executor(g, be);
        std::vector<std::uint64_t> counts;
        executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::M4), &counts);
        ASSERT_EQ(counts.size(), 6u);
        using gpm::Pattern;
        const Pattern patterns[6] = {
            Pattern::path(4),   Pattern::star(3),
            Pattern::cycle(4),  Pattern::tailedTriangle(),
            Pattern::diamond(), Pattern::clique(4)};
        for (unsigned p = 0; p < 6; ++p)
            EXPECT_EQ(counts[p],
                      test::bruteForceCount(g, patterns[p], true))
                << patterns[p].name() << " seed " << seed;
    }
}

TEST(FourMotif, PartitionsAllFourSubsets)
{
    // Every connected 4-subset is exactly one of the six motifs, so
    // the motif total equals the number of connected 4-subsets.
    const auto g = test::randomTestGraph(16, 50, 7);
    backend::FunctionalBackend be;
    gpm::PlanExecutor executor(g, be);
    const auto total =
        executor.runMany(gpm::gpmAppPlans(gpm::GpmApp::M4))
            .embeddings;

    std::uint64_t connected = 0;
    const VertexId n = g.numVertices();
    for (VertexId a = 0; a < n; ++a)
        for (VertexId b = a + 1; b < n; ++b)
            for (VertexId c = b + 1; c < n; ++c)
                for (VertexId d = c + 1; d < n; ++d) {
                    gpm::Pattern induced(4);
                    const VertexId verts[4] = {a, b, c, d};
                    for (unsigned i = 0; i < 4; ++i)
                        for (unsigned j = i + 1; j < 4; ++j)
                            if (g.hasEdge(verts[i], verts[j]))
                                induced.addEdge(i, j);
                    if (induced.isConnected())
                        ++connected;
                }
    EXPECT_EQ(total, connected);
}
