/**
 * @file
 * Property tests for the runtime-dispatched SIMD kernel registry
 * (streams/simd): every available level must return bit-identical
 * outputs AND bit-identical SetOpResult work summaries versus the
 * scalar reference functions, the .C counting forms must agree with
 * their materializing twins, and — the load-bearing invariant —
 * simulated cycles must not move by a single cycle when the kernel
 * level changes (golden-trace replay and Machine comparisons under
 * ScopedKernelOverride).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/artifact_store.hh"
#include "api/machine.hh"
#include "api/parallel.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/rng.hh"
#include "streams/simd/kernel_table.hh"
#include "test_util.hh"
#include "trace/bytecode.hh"
#include "trace/replay.hh"

using namespace sc;
using namespace sc::streams;

namespace {

std::vector<Key>
sortedRandom(Rng &rng, std::size_t n, Key universe)
{
    std::set<Key> s;
    while (s.size() < n)
        s.insert(static_cast<Key>(rng.below(universe)));
    return {s.begin(), s.end()};
}

void
expectSameResult(const SetOpResult &ref, const SetOpResult &got,
                 const std::string &what)
{
    EXPECT_EQ(ref.count, got.count) << what;
    EXPECT_EQ(ref.steps, got.steps) << what;
    EXPECT_EQ(ref.aConsumed, got.aConsumed) << what;
    EXPECT_EQ(ref.bConsumed, got.bConsumed) << what;
}

/** Operand pairs covering the shapes the satellites call out: empty,
 *  single-element, similar lengths, heavy skew (galloping paths),
 *  dense overlap, disjoint ranges, and sub-block remainders. */
std::vector<std::pair<std::vector<Key>, std::vector<Key>>>
operandPairs(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<std::vector<Key>, std::vector<Key>>> pairs;
    pairs.push_back({{}, {}});
    pairs.push_back({{}, sortedRandom(rng, 17, 100)});
    pairs.push_back({sortedRandom(rng, 17, 100), {}});
    pairs.push_back({{42}, sortedRandom(rng, 33, 100)});
    pairs.push_back({sortedRandom(rng, 33, 100), {42}});
    pairs.push_back({{7}, {7}});
    // Similar lengths, dense overlap (small universe).
    pairs.push_back(
        {sortedRandom(rng, 200, 400), sortedRandom(rng, 180, 400)});
    // Similar lengths, sparse overlap.
    pairs.push_back(
        {sortedRandom(rng, 150, 100000), sortedRandom(rng, 170, 100000)});
    // Sub-block lengths (< one AVX2 block).
    pairs.push_back({sortedRandom(rng, 5, 50), sortedRandom(rng, 6, 50)});
    // Heavy skew in both directions (galloping fast paths).
    pairs.push_back(
        {sortedRandom(rng, 2000, 10000), sortedRandom(rng, 20, 10000)});
    pairs.push_back(
        {sortedRandom(rng, 20, 10000), sortedRandom(rng, 2000, 10000)});
    // Disjoint key ranges (pointer sprints).
    {
        auto lo = sortedRandom(rng, 100, 500);
        auto hi = sortedRandom(rng, 100, 500);
        for (Key &k : hi)
            k += 1000;
        pairs.push_back({lo, hi});
    }
    return pairs;
}

std::vector<Key>
boundsFor(const std::vector<Key> &a, const std::vector<Key> &b)
{
    std::vector<Key> bounds = {noBound, 0};
    if (!a.empty())
        bounds.push_back(a[a.size() / 2]);
    if (!b.empty())
        bounds.push_back(b.back() + 1);
    bounds.push_back(3);
    return bounds;
}

} // namespace

TEST(KernelTable, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(kernelLevelAvailable(KernelLevel::Scalar));
    const auto levels = availableKernelLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), KernelLevel::Scalar);
    for (const KernelLevel level : levels)
        EXPECT_EQ(kernelsFor(level).level, level);
}

TEST(KernelTable, OverrideIsScopedAndNests)
{
    const KernelLevel def = activeKernels().level;
    {
        ScopedKernelOverride outer(KernelLevel::Scalar);
        EXPECT_EQ(activeKernels().level, KernelLevel::Scalar);
        for (const KernelLevel level : availableKernelLevels()) {
            ScopedKernelOverride inner(level);
            EXPECT_EQ(activeKernels().level, level);
        }
        EXPECT_EQ(activeKernels().level, KernelLevel::Scalar);
    }
    EXPECT_EQ(activeKernels().level, def);
}

TEST(KernelTable, UnavailableLevelIsFatal)
{
    if (kernelLevelAvailable(KernelLevel::Avx2))
        GTEST_SKIP() << "all kernel levels available on this host";
    EXPECT_THROW(kernelsFor(KernelLevel::Avx2), SimError);
}

class KernelProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelProperty, AllLevelsMatchScalarReference)
{
    for (const auto &[a, b] : operandPairs(GetParam())) {
        for (const Key bound : boundsFor(a, b)) {
            for (const auto kind : {SetOpKind::Intersect,
                                    SetOpKind::Subtract,
                                    SetOpKind::Merge}) {
                // Scalar reference: the templates themselves.
                std::vector<Key> ref_out;
                SetOpResult ref;
                switch (kind) {
                  case SetOpKind::Intersect:
                    ref = intersect(a, b, bound, &ref_out);
                    break;
                  case SetOpKind::Subtract:
                    ref = subtract(a, b, bound, &ref_out);
                    break;
                  case SetOpKind::Merge:
                    ref = merge(a, b, &ref_out);
                    break;
                }
                for (const KernelLevel level : availableKernelLevels()) {
                    ScopedKernelOverride forced(level);
                    const std::string what =
                        std::string(setOpName(kind)) + " level=" +
                        kernelLevelName(level) + " |a|=" +
                        std::to_string(a.size()) + " |b|=" +
                        std::to_string(b.size()) + " bound=" +
                        std::to_string(bound);
                    // Materializing form appends after a sentinel so
                    // base-offset handling is exercised too.
                    std::vector<Key> out = {12345};
                    const SetOpResult got =
                        runSetOp(kind, a, b, bound, &out);
                    expectSameResult(ref, got, what);
                    ASSERT_EQ(out.size(), ref_out.size() + 1) << what;
                    EXPECT_EQ(out.front(), 12345u) << what;
                    EXPECT_TRUE(std::equal(ref_out.begin(),
                                           ref_out.end(),
                                           out.begin() + 1))
                        << what;
                    // Counting form: identical work summary.
                    expectSameResult(
                        ref, runSetOpCount(kind, a, b, bound),
                        what + " (.C)");
                }
            }
        }
    }
}

TEST_P(KernelProperty, AliasedOperands)
{
    Rng rng(GetParam() * 977);
    const auto a = sortedRandom(rng, 300, 1000);
    for (const KernelLevel level : availableKernelLevels()) {
        ScopedKernelOverride forced(level);
        std::vector<Key> out;
        const auto inter =
            runSetOp(SetOpKind::Intersect, a, a, noBound, &out);
        EXPECT_EQ(inter.count, a.size());
        EXPECT_EQ(out, a);
        out.clear();
        const auto sub =
            runSetOp(SetOpKind::Subtract, a, a, noBound, &out);
        EXPECT_EQ(sub.count, 0u);
        EXPECT_TRUE(out.empty());
        out.clear();
        const auto mer = runSetOp(SetOpKind::Merge, a, a, noBound, &out);
        EXPECT_EQ(mer.count, a.size());
        EXPECT_EQ(out, a);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

// ---------------- cycles-vs-wall-clock invariant ----------------

TEST(KernelCycles, GoldenTraceReplayInvariantAcrossLevels)
{
    const auto golden = trace::BytecodeProgram::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    const arch::SparseCoreConfig config;

    Cycles cpu_ref = 0, sc_ref = 0;
    bool first = true;
    for (const KernelLevel level : availableKernelLevels()) {
        ScopedKernelOverride forced(level);
        backend::CpuBackend cpu(config.core, config.mem);
        backend::SparseCoreBackend sc(config);
        const Cycles cpu_cycles =
            trace::replayCompiled(golden, cpu).cycles;
        const Cycles sc_cycles = trace::replayCompiled(golden, sc).cycles;
        if (first) {
            cpu_ref = cpu_cycles;
            sc_ref = sc_cycles;
            first = false;
            continue;
        }
        EXPECT_EQ(cpu_cycles, cpu_ref)
            << "CPU replay cycles moved at level "
            << kernelLevelName(level);
        EXPECT_EQ(sc_cycles, sc_ref)
            << "SparseCore replay cycles moved at level "
            << kernelLevelName(level);
    }
}

TEST(KernelCycles, MachineComparisonInvariantAcrossLevels)
{
    const auto g = test::randomTestGraph(120, 900, 7);
    api::Machine machine;

    std::uint64_t emb_ref = 0;
    Cycles cpu_ref = 0, sc_ref = 0;
    bool first = true;
    for (const KernelLevel level : availableKernelLevels()) {
        ScopedKernelOverride forced(level);
        // Every level must capture its own trace, or each level after
        // the first would replay the first level's capture.
        api::ArtifactStore::global().clear();
        const auto cmp =
            machine.compare(api::RunRequest::gpm(gpm::GpmApp::T, g));
        EXPECT_FALSE(cmp.trace.traceCacheHit) << kernelLevelName(level);
        if (first) {
            emb_ref = cmp.functionalResult;
            cpu_ref = cmp.baseline.cycles;
            sc_ref = cmp.accelerated.cycles;
            first = false;
            continue;
        }
        EXPECT_EQ(cmp.functionalResult, emb_ref)
            << kernelLevelName(level);
        EXPECT_EQ(cmp.baseline.cycles, cpu_ref)
            << kernelLevelName(level);
        EXPECT_EQ(cmp.accelerated.cycles, sc_ref)
            << kernelLevelName(level);
    }
}

TEST(KernelCycles, ParallelMiningDeterministicAcrossLevels)
{
    const auto g = test::randomTestGraph(150, 1200, 17);
    std::uint64_t emb_ref = 0;
    Cycles cyc_ref = 0;
    bool first = true;
    for (const KernelLevel level : availableKernelLevels()) {
        ScopedKernelOverride forced(level);
        api::ArtifactStore::global().clear(); // capture every chunk
        const auto par = api::mineParallel(gpm::GpmApp::C4, g, 3,
                                           api::Substrate::SparseCore);
        if (first) {
            emb_ref = par.embeddings;
            cyc_ref = par.cycles;
            first = false;
            continue;
        }
        EXPECT_EQ(par.embeddings, emb_ref) << kernelLevelName(level);
        EXPECT_EQ(par.cycles, cyc_ref) << kernelLevelName(level);
    }
}
