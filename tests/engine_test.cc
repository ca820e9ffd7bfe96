/**
 * @file
 * Behavioural tests for the SparseCore engine: scheduling overlap,
 * resource scaling (SUs, bandwidth — the Fig. 12/13 mechanisms),
 * nested intersection, scratchpad reuse, SMT virtualization, and
 * breakdown consistency.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "arch/engine.hh"
#include "common/rng.hh"

using namespace sc;
using namespace sc::arch;
using streams::SetOpKind;

namespace {

/** Sorted random keys for synthetic streams. */
std::vector<Key>
keys(Rng &rng, std::size_t n, Key universe = 100000)
{
    std::vector<Key> v(n);
    for (auto &k : v)
        k = static_cast<Key>(rng.below(universe));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

/** Run a batch of independent intersect-count pairs on the engine. */
Cycles
runBatch(const SparseCoreConfig &config, unsigned pairs,
         std::size_t stream_len, std::uint64_t seed = 1)
{
    Engine engine(config);
    Rng rng(seed);
    for (unsigned i = 0; i < pairs; ++i) {
        const auto a = keys(rng, stream_len);
        const auto b = keys(rng, stream_len);
        const Addr addr_a = 0x10000000 + i * 0x10000;
        const Addr addr_b = 0x20000000 + i * 0x10000;
        const auto ha = engine.streamRead(
            addr_a, static_cast<std::uint32_t>(a.size()), 0, a);
        const auto hb = engine.streamRead(
            addr_b, static_cast<std::uint32_t>(b.size()), 0, b);
        engine.setOpCount(SetOpKind::Intersect, ha, hb, a, b, noBound);
        engine.streamFree(ha);
        engine.streamFree(hb);
    }
    return engine.finish();
}

} // namespace

TEST(Engine, MoreSusNeverSlower)
{
    SparseCoreConfig c1, c2, c4, c8;
    c1.numSus = 1;
    c2.numSus = 2;
    c4.numSus = 4;
    c8.numSus = 8;
    const Cycles t1 = runBatch(c1, 64, 300);
    const Cycles t2 = runBatch(c2, 64, 300);
    const Cycles t4 = runBatch(c4, 64, 300);
    const Cycles t8 = runBatch(c8, 64, 300);
    EXPECT_LE(t2, t1);
    EXPECT_LE(t4, t2);
    EXPECT_LE(t8, t4);
    // Going 1 -> 4 SUs must actually help on an op-rich batch.
    EXPECT_LT(t4 * 5, t1 * 4);
}

TEST(Engine, MoreBandwidthNeverSlower)
{
    Cycles prev = ~Cycles{0};
    for (unsigned bw : {2u, 4u, 8u, 16u, 32u, 64u}) {
        SparseCoreConfig c;
        c.aggregateBandwidth = bw;
        const Cycles t = runBatch(c, 48, 400);
        EXPECT_LE(t, prev) << "bw " << bw;
        prev = t;
    }
}

TEST(Engine, BandwidthSaturates)
{
    // The Fig. 13 diminishing-returns shape: 32 -> 64 gains less
    // than 2 -> 4.
    SparseCoreConfig c;
    c.aggregateBandwidth = 2;
    const double t2 = runBatch(c, 48, 400);
    c.aggregateBandwidth = 4;
    const double t4 = runBatch(c, 48, 400);
    c.aggregateBandwidth = 32;
    const double t32 = runBatch(c, 48, 400);
    c.aggregateBandwidth = 64;
    const double t64 = runBatch(c, 48, 400);
    EXPECT_GT(t2 / t4, t32 / std::max(1.0, t64));
}

TEST(Engine, BoundedOpCheaperThanFull)
{
    SparseCoreConfig config;
    Rng rng(3);
    const auto a = keys(rng, 500);
    const auto b = keys(rng, 500);

    Engine full(config);
    auto ha = full.streamRead(0x1000, a.size(), 0, a);
    auto hb = full.streamRead(0x9000, b.size(), 0, b);
    full.setOpCount(SetOpKind::Intersect, ha, hb, a, b, noBound);
    const Cycles t_full = full.finish();

    Engine bounded(config);
    ha = bounded.streamRead(0x1000, a.size(), 0, a);
    hb = bounded.streamRead(0x9000, b.size(), 0, b);
    bounded.setOpCount(SetOpKind::Intersect, ha, hb, a, b, a[50]);
    const Cycles t_bounded = bounded.finish();
    EXPECT_LT(t_bounded, t_full);
}

TEST(Engine, ScratchpadHitsForHighPriorityReuse)
{
    SparseCoreConfig config;
    Engine engine(config);
    Rng rng(5);
    const auto a = keys(rng, 200);
    // Load the same high-priority stream repeatedly (the reused
    // operand pattern of tailed-triangle inner loops).
    for (int i = 0; i < 10; ++i) {
        const auto h = engine.streamRead(0x4000, a.size(), 1, a);
        engine.streamFree(h);
    }
    EXPECT_GE(engine.counters().scratchpadStreamHits, 9u);

    // Priority-0 loads never hit the scratchpad.
    Engine engine2(config);
    for (int i = 0; i < 10; ++i) {
        const auto h = engine2.streamRead(0x4000, a.size(), 0, a);
        engine2.streamFree(h);
    }
    EXPECT_EQ(engine2.counters().scratchpadStreamHits, 0u);
}

TEST(Engine, DependentOpsSerialize)
{
    // C = A & B; D = C & E. The second op cannot start before the
    // first completes: total must exceed an independent pair's time.
    SparseCoreConfig config;
    Rng rng(7);
    const auto a = keys(rng, 400);
    const auto b = keys(rng, 400);
    std::vector<Key> c_keys;
    streams::intersect(a, b, noBound, &c_keys);

    Engine dep(config);
    auto ha = dep.streamRead(0x1000, a.size(), 0, a);
    auto hb = dep.streamRead(0x9000, b.size(), 0, b);
    auto hc = dep.setOp(SetOpKind::Intersect, ha, hb, a, b, noBound,
                        c_keys.size());
    dep.setOpCount(SetOpKind::Intersect, hc, ha, c_keys, a, noBound);
    const Cycles t_dep = dep.finish();

    Engine indep(config);
    ha = indep.streamRead(0x1000, a.size(), 0, a);
    hb = indep.streamRead(0x9000, b.size(), 0, b);
    indep.setOpCount(SetOpKind::Intersect, ha, hb, a, b, noBound);
    indep.setOpCount(SetOpKind::Intersect, hb, ha, b, a, noBound);
    const Cycles t_indep = indep.finish();
    EXPECT_GT(t_dep, t_indep - t_indep / 4);
}

TEST(Engine, NestedCheaperThanExplicitLoop)
{
    // The §6.3.2 effect: S_NESTINTER removes per-iteration scalar
    // work and issues intersections in bursts.
    SparseCoreConfig config;
    Rng rng(11);
    const auto s = keys(rng, 64, 4096);
    std::vector<std::vector<Key>> nested_lists;
    for (std::size_t i = 0; i < s.size(); ++i)
        nested_lists.push_back(keys(rng, 60, 4096));

    Engine nested(config);
    auto hs = nested.streamRead(0x1000, s.size(), 0, s);
    std::vector<NestedElem> elems;
    for (std::size_t i = 0; i < s.size(); ++i)
        elems.push_back({0x2000 + i * 8, 0x900000 + i * 0x1000,
                         nested_lists[i], s[i]});
    nested.nestedIntersect(hs, s, elems);
    const Cycles t_nested = nested.finish();

    Engine loop(config);
    hs = loop.streamRead(0x1000, s.size(), 0, s);
    loop.fetchLoop(hs, s.size(), 3);
    for (std::size_t i = 0; i < s.size(); ++i) {
        auto hn = loop.streamRead(0x900000 + i * 0x1000,
                                  nested_lists[i].size(), 0,
                                  nested_lists[i]);
        loop.setOpCount(SetOpKind::Intersect, hs, hn, s,
                        nested_lists[i], s[i]);
        loop.streamFree(hn);
        loop.scalarOps(1);
    }
    const Cycles t_loop = loop.finish();
    EXPECT_LT(t_nested, t_loop);
}

TEST(Engine, SmtVirtualizationKicksIn)
{
    SparseCoreConfig config;
    Engine engine(config);
    Rng rng(13);
    const auto a = keys(rng, 16);
    std::vector<StreamHandle> handles;
    for (unsigned i = 0; i < 20; ++i)
        handles.push_back(
            engine.streamRead(0x1000 + i * 0x100, a.size(), 0, a));
    EXPECT_GT(engine.counters().smtVirtualizationStalls, 0u);
    engine.finish();
}

TEST(Engine, DoubleFreePanics)
{
    Engine engine;
    Rng rng(17);
    const auto a = keys(rng, 8);
    const auto h = engine.streamRead(0x1000, a.size(), 0, a);
    engine.streamFree(h);
    EXPECT_THROW(engine.streamFree(h), SimError);
}

TEST(Engine, BreakdownSumsToTotal)
{
    SparseCoreConfig config;
    const Cycles total = runBatch(config, 32, 200, 19);
    Engine engine(config);
    Rng rng(19);
    for (unsigned i = 0; i < 32; ++i) {
        const auto a = keys(rng, 200);
        const auto b = keys(rng, 200);
        const auto ha = engine.streamRead(0x10000000 + i * 0x10000,
                                          a.size(), 0, a);
        const auto hb = engine.streamRead(0x20000000 + i * 0x10000,
                                          b.size(), 0, b);
        engine.setOpCount(SetOpKind::Intersect, ha, hb, a, b, noBound);
        engine.streamFree(ha);
        engine.streamFree(hb);
    }
    EXPECT_EQ(engine.finish(), total); // deterministic
    EXPECT_EQ(engine.breakdown().total(), engine.now());
}

TEST(Engine, StreamLengthHistogramPopulated)
{
    Engine engine;
    Rng rng(23);
    const auto a = keys(rng, 120);
    const auto b = keys(rng, 80);
    const auto ha = engine.streamRead(0x1000, a.size(), 0, a);
    const auto hb = engine.streamRead(0x9000, b.size(), 0, b);
    engine.setOpCount(SetOpKind::Intersect, ha, hb, a, b, noBound);
    engine.finish();
    EXPECT_GE(engine.streamLengthHist().samples(), 4u);
    EXPECT_EQ(engine.streamLengthHist().maxValue(), a.size());
}

TEST(Engine, RejectsBadConfig)
{
    SparseCoreConfig c;
    c.numSus = 0;
    EXPECT_THROW(Engine{c}, SimError);
    c.numSus = 4;
    c.aggregateBandwidth = 0;
    EXPECT_THROW(Engine{c}, SimError);
}
