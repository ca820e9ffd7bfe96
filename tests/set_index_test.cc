/**
 * @file
 * Tests for the hybrid bitmap/array stream set index
 * (streams/setindex): policy machinery, degree-ordered relabeling,
 * bitmap format selection, registry lifetime, and — the load-bearing
 * invariant — bit-identical outputs AND bit-identical SetOpResult
 * work summaries of IndexPolicy::Auto against the ArrayOnly reference
 * and the scalar set ops on graph-resident operands, with simulated
 * cycles pinned by golden-trace replay, Machine comparisons and
 * parallel mining under both policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/machine.hh"
#include "api/parallel.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/rng.hh"
#include "graph/generators.hh"
#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "streams/set_ops.hh"
#include "streams/setindex/hybrid.hh"
#include "streams/setindex/policy.hh"
#include "streams/setindex/registry.hh"
#include "streams/setindex/set_index.hh"
#include "test_util.hh"
#include "trace/bytecode.hh"
#include "trace/replay.hh"

using namespace sc;
using namespace sc::streams;
using namespace sc::streams::setindex;

namespace {

constexpr IndexPolicy allPolicies[] = {IndexPolicy::Auto,
                                       IndexPolicy::ArrayOnly};

void
expectSameResult(const SetOpResult &ref, const SetOpResult &got,
                 const std::string &what)
{
    EXPECT_EQ(ref.count, got.count) << what;
    EXPECT_EQ(ref.steps, got.steps) << what;
    EXPECT_EQ(ref.aConsumed, got.aConsumed) << what;
    EXPECT_EQ(ref.bConsumed, got.bConsumed) << what;
}

/** A hub-heavy adversarial graph: `hubs` mutually-adjacent vertices
 *  that are also adjacent to every spoke, plus a sparse spoke ring.
 *  Hub lists are long and (after degree relabeling) extremely dense
 *  in rank space; spoke lists are short and mostly hub-valued. */
graph::CsrGraph
hubGraph(VertexId hubs, VertexId spokes)
{
    const VertexId n = hubs + spokes;
    std::vector<std::vector<VertexId>> adj(n);
    for (VertexId h = 0; h < hubs; ++h) {
        for (VertexId o = 0; o < n; ++o)
            if (o != h)
                adj[h].push_back(o);
        for (VertexId o = 0; o < n; ++o)
            if (o >= hubs)
                adj[o].push_back(h);
    }
    for (VertexId s = hubs; s < n; ++s) {
        const VertexId t = s + 1 < n ? s + 1 : hubs;
        if (t != s) {
            adj[s].push_back(t);
            adj[t].push_back(s);
        }
    }
    std::vector<std::uint64_t> offsets = {0};
    std::vector<VertexId> edges;
    for (VertexId v = 0; v < n; ++v) {
        std::sort(adj[v].begin(), adj[v].end());
        adj[v].erase(std::unique(adj[v].begin(), adj[v].end()),
                     adj[v].end());
        edges.insert(edges.end(), adj[v].begin(), adj[v].end());
        offsets.push_back(edges.size());
    }
    return graph::CsrGraph(std::move(offsets), std::move(edges), "hub");
}

/** Auto consults the index only for ops whose longer operand has
 *  autoMinIndexedKeys (256) keys, and probes only a bitmap side at
 *  least autoProbeSkew (4) times longer than the other. This hub
 *  graph's hub lists have 319 keys and its spoke lists 22, so every
 *  hybrid kernel runs under Auto. */
graph::CsrGraph
autoHubGraph()
{
    return hubGraph(20, 300);
}

/** One of the `top` highest-degree vertices of g, drawn from rng. */
VertexId
hubVertex(const graph::CsrGraph &g, Rng &rng, std::uint32_t top = 8)
{
    return static_cast<VertexId>(g.setIndex()->originalId(
        static_cast<std::uint32_t>(rng.below(top))));
}

/** The operand-span shapes the executors actually pass to runSetOp. */
std::vector<KeySpan>
spanShapes(const graph::CsrGraph &g, VertexId v)
{
    std::vector<KeySpan> shapes;
    shapes.push_back(g.neighbors(v));
    shapes.push_back(g.neighborsAbove(v));
    shapes.push_back(g.neighborsBelow(v));
    const auto full = g.neighbors(v);
    if (full.size() > 2)
        shapes.push_back(full.first(full.size() / 2)); // prefix slice
    return shapes;
}

std::vector<Key>
boundsFor(KeySpan a, KeySpan b)
{
    std::vector<Key> bounds = {noBound, 0};
    if (!a.empty())
        bounds.push_back(a[a.size() / 2]);
    if (!b.empty()) {
        bounds.push_back(b.back());
        bounds.push_back(b.back() + 1);
    }
    return bounds;
}

/** Reference vs every policy, materializing and counting forms. */
void
checkAllPolicies(KeySpan a, KeySpan b, const std::string &ctx)
{
    for (const Key bound : boundsFor(a, b)) {
        for (const auto kind : {SetOpKind::Intersect, SetOpKind::Subtract,
                                SetOpKind::Merge}) {
            const Key kbound =
                kind == SetOpKind::Merge ? noBound : bound;
            std::vector<Key> ref_out;
            SetOpResult ref;
            switch (kind) {
              case SetOpKind::Intersect:
                ref = intersect(a, b, kbound, &ref_out);
                break;
              case SetOpKind::Subtract:
                ref = subtract(a, b, kbound, &ref_out);
                break;
              case SetOpKind::Merge:
                ref = merge(a, b, &ref_out);
                break;
            }
            for (const IndexPolicy policy : allPolicies) {
                ScopedIndexPolicyOverride forced(policy);
                const std::string what =
                    ctx + " " + setOpName(kind) + " policy=" +
                    indexPolicyName(policy) + " |a|=" +
                    std::to_string(a.size()) + " |b|=" +
                    std::to_string(b.size()) + " bound=" +
                    std::to_string(kbound);
                std::vector<Key> out = {99999};
                const SetOpResult got =
                    runSetOp(kind, a, b, kbound, &out);
                expectSameResult(ref, got, what);
                ASSERT_EQ(out.size(), ref_out.size() + 1) << what;
                EXPECT_EQ(out.front(), 99999u) << what;
                EXPECT_TRUE(std::equal(ref_out.begin(), ref_out.end(),
                                       out.begin() + 1))
                    << what;
                expectSameResult(ref,
                                 runSetOpCount(kind, a, b, kbound),
                                 what + " (.C)");
            }
        }
    }
}

} // namespace

// ---------------- policy machinery ----------------

TEST(SetIndexPolicy, OverrideIsScopedAndNests)
{
    const IndexPolicy def = activeIndexPolicy();
    {
        ScopedIndexPolicyOverride outer(IndexPolicy::ArrayOnly);
        EXPECT_EQ(activeIndexPolicy(), IndexPolicy::ArrayOnly);
        for (const IndexPolicy policy : allPolicies) {
            ScopedIndexPolicyOverride inner(policy);
            EXPECT_EQ(activeIndexPolicy(), policy);
        }
        EXPECT_EQ(activeIndexPolicy(), IndexPolicy::ArrayOnly);
    }
    EXPECT_EQ(activeIndexPolicy(), def);
}

// ---------------- index construction ----------------

TEST(SetIndexBuild, PermutationIsDegreeDescendingAndBijective)
{
    for (const auto &g :
         {test::randomTestGraph(150, 1100, 11),
          graph::generateChungLu(300, 2500, 120, 2.1, 7), hubGraph(24, 60)}) {
        const auto idx = g.setIndex();
        ASSERT_NE(idx, nullptr) << g.name();
        ASSERT_EQ(idx->numVertices(), g.numVertices());
        for (std::uint32_t r = 0; r + 1 < g.numVertices(); ++r) {
            const Key u = idx->originalId(r);
            const Key v = idx->originalId(r + 1);
            // Descending degree, ties broken by ascending id: rank
            // order is a strict total order, so perm is reproducible.
            const bool ordered =
                g.degree(u) > g.degree(v) ||
                (g.degree(u) == g.degree(v) && u < v);
            EXPECT_TRUE(ordered)
                << g.name() << " rank " << r << ": deg(" << u
                << ")=" << g.degree(u) << " deg(" << v
                << ")=" << g.degree(v);
        }
        for (Key v = 0; v < g.numVertices(); ++v)
            EXPECT_EQ(idx->originalId(idx->rank(v)), v);
    }
}

TEST(SetIndexBuild, BitmapFormatSelection)
{
    // One tier: a list gets a bitmap exactly when it has at least
    // minBitmapDegree keys and its rank range fits in wordsPerKey
    // words per key. Every hub-graph list passes (hubs are adjacent to
    // everything); the sparse power-law graph has lists that fail.
    std::uint64_t too_sparse = 0;
    for (const auto &g :
         {hubGraph(24, 60),
          graph::generateChungLu(2000, 12000, 400, 2.1, 7)}) {
        const auto idx = g.setIndex();
        ASSERT_NE(idx, nullptr) << g.name();
        const StreamSetIndex::Params &params = idx->params();
        std::uint64_t with_bitmap = 0;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            std::uint32_t lo = ~0u, hi = 0;
            for (const Key k : g.neighbors(v)) {
                lo = std::min(lo, idx->rank(k));
                hi = std::max(hi, idx->rank(k));
            }
            const std::uint64_t words = (hi >> 6) - (lo >> 6) + 1;
            const bool long_enough = g.degree(v) >= params.minBitmapDegree;
            const bool dense_enough =
                words <= std::uint64_t{g.degree(v)} * params.wordsPerKey;
            const auto bm = idx->bitmap(v);
            ASSERT_EQ(bm.valid(), long_enough && dense_enough)
                << g.name() << " v=" << v << " degree=" << g.degree(v)
                << " words=" << words;
            if (!bm.valid()) {
                too_sparse += long_enough;
                continue;
            }
            ++with_bitmap;
            EXPECT_EQ(bm.firstWord, lo >> 6);
            EXPECT_EQ(bm.numWords, words);
            // Membership agrees exactly with the adjacency list.
            for (Key k = 0; k < g.numVertices(); ++k)
                EXPECT_EQ(idx->contains(bm, k), g.hasEdge(v, k))
                    << g.name() << " v=" << v << " k=" << k;
            // Out-of-universe keys never hit.
            EXPECT_FALSE(idx->contains(bm, g.numVertices()));
            EXPECT_FALSE(idx->contains(bm, noBound));
        }
        EXPECT_GT(with_bitmap, 0u) << g.name();
        EXPECT_EQ(with_bitmap, idx->numBitmaps()) << g.name();
    }
    EXPECT_GT(too_sparse, 0u);
}

TEST(SetIndexBuild, RejectsNonVertexKeysAndEmptyGraphs)
{
    // Synthetic CSR with a key outside [0, numVertices): unindexable.
    const std::vector<std::uint64_t> offsets = {0, 2};
    const std::vector<Key> edges = {1, 500};
    EXPECT_EQ(StreamSetIndex::build(offsets, edges), nullptr);
    EXPECT_EQ(StreamSetIndex::build({}, {}), nullptr);
    EXPECT_EQ(StreamSetIndex::build({0}, {}), nullptr);
}

// ---------------- registry lifetime ----------------

TEST(SetIndexRegistry, LifetimeAcrossCopyMoveDestroy)
{
    const std::size_t base = registrySize();
    {
        auto g = test::randomTestGraph(80, 500, 3);
        ASSERT_NE(g.setIndex(), nullptr);
        EXPECT_EQ(registrySize(), base + 1);

        graph::CsrGraph copy = g;
        EXPECT_EQ(registrySize(), base + 2);
        // The copy shares the immutable index but registers its own
        // edge-array range.
        EXPECT_EQ(copy.setIndex().get(), g.setIndex().get());
        ResolvedSpan rs;
        ASSERT_TRUE(resolveSpan(copy.neighbors(5), rs));
        EXPECT_EQ(rs.index, copy.setIndex().get());
        EXPECT_EQ(rs.vertex, 5u);
        EXPECT_TRUE(rs.fullList);

        graph::CsrGraph moved = std::move(copy);
        EXPECT_EQ(registrySize(), base + 2);
        ASSERT_TRUE(resolveSpan(moved.neighbors(5), rs));
        EXPECT_EQ(rs.vertex, 5u);

        moved = graph::CsrGraph();
        EXPECT_EQ(registrySize(), base + 1);
    }
    EXPECT_EQ(registrySize(), base);
}

TEST(SetIndexRegistry, ResolveSpanShapes)
{
    const auto g = hubGraph(24, 60);
    ASSERT_NE(g.setIndex(), nullptr);
    // Pick a hub with neighbors on both sides of its own id.
    const VertexId v = 10;
    ResolvedSpan rs;

    ASSERT_TRUE(resolveSpan(g.neighbors(v), rs));
    EXPECT_EQ(rs.vertex, v);
    EXPECT_TRUE(rs.fullList);

    ASSERT_TRUE(resolveSpan(g.neighborsAbove(v), rs));
    EXPECT_EQ(rs.vertex, v);
    EXPECT_FALSE(rs.fullList);

    ASSERT_TRUE(resolveSpan(g.neighborsBelow(v), rs));
    EXPECT_EQ(rs.vertex, v);
    EXPECT_FALSE(rs.fullList);

    const auto prefix = g.neighbors(v).first(g.degree(v) / 2);
    ASSERT_TRUE(resolveSpan(prefix, rs));
    EXPECT_EQ(rs.vertex, v);
    EXPECT_FALSE(rs.fullList);

    // Heap copies of a list are NOT the registered storage.
    const auto n = g.neighbors(v);
    std::vector<Key> heap(n.begin(), n.end());
    EXPECT_FALSE(resolveSpan(heap, rs));

    // Empty spans never resolve.
    EXPECT_FALSE(resolveSpan(KeySpan{}, rs));

    // A span straddling a row boundary is rejected (possible only for
    // hand-built spans; executors never produce one).
    const auto &edges = g.edges();
    const auto &offsets = g.offsets();
    const KeySpan straddle{edges.data() + offsets[v],
                           static_cast<std::size_t>(g.degree(v) + 1)};
    ASSERT_LE(offsets[v] + straddle.size(), edges.size());
    EXPECT_FALSE(resolveSpan(straddle, rs));
}

// ---------------- cross-policy bit-identity ----------------

class SetIndexProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SetIndexProperty, PoliciesBitIdenticalOnGraphSpans)
{
    const std::uint64_t seed = GetParam();
    const auto er = test::randomTestGraph(140, 1000, seed);
    const auto pl = graph::generateChungLu(260, 2200, 100, 2.1, seed);
    const auto hub = autoHubGraph();
    Rng rng(seed * 31 + 1);
    for (const graph::CsrGraph *g : {&er, &pl, &hub}) {
        ASSERT_NE(g->setIndex(), nullptr) << g->name();
        const auto any = [&] {
            return static_cast<VertexId>(rng.below(g->numVertices()));
        };
        for (int pair = 0; pair < 8; ++pair) {
            // Hub x any, any x hub, hub x hub, any x any: the long
            // lists are where Auto leaves the array kernels.
            const VertexId u = pair % 4 == 0 || pair % 4 == 2
                                   ? hubVertex(*g, rng)
                                   : any();
            const VertexId v = pair % 4 == 1 || pair % 4 == 2
                                   ? hubVertex(*g, rng)
                                   : any();
            for (const KeySpan a : spanShapes(*g, u))
                for (const KeySpan b : spanShapes(*g, v))
                    checkAllPolicies(a, b,
                                     g->name() + " u=" +
                                         std::to_string(u) + " v=" +
                                         std::to_string(v));
        }
    }
}

TEST_P(SetIndexProperty, MixedGraphAndHeapOperands)
{
    const auto g = autoHubGraph();
    ASSERT_NE(g.setIndex(), nullptr);
    Rng rng(GetParam() ^ 0x5e7);
    for (int iter = 0; iter < 6; ++iter) {
        const auto v =
            iter % 2 ? static_cast<VertexId>(rng.below(g.numVertices()))
                     : hubVertex(g, rng);
        // A heap-resident operand (an executor arena buffer, say):
        // only the graph side can use a bitmap. Every third one is
        // sparse enough for a hub list to probe it.
        const std::uint64_t keep_one_in = iter % 3 == 2 ? 8 : 3;
        std::vector<Key> heap;
        for (Key k = 0; k < g.numVertices(); ++k)
            if (rng.below(keep_one_in) == 0)
                heap.push_back(k);
        checkAllPolicies(g.neighbors(v), heap, "graph-x-heap");
        checkAllPolicies(heap, g.neighbors(v), "heap-x-graph");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetIndexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------- interpreter operands ----------------

TEST(SetIndexInterpreter, StreamOpsBitIdenticalAcrossPolicies)
{
    // Graph-backed memory image: the interpreter's zero-copy operand
    // spans alias the live edge array, so S_INTER.C operands resolve
    // in the registry and take the hybrid path under Auto.
    const auto g = autoHubGraph();
    ASSERT_NE(g.setIndex(), nullptr);
    isa::MemoryImage mem;
    mem.addSegment(g.vertexArrayBase(), g.offsets().data(),
                   g.offsets().size() * sizeof(std::uint64_t));
    mem.addSegment(g.edgeArrayBase(), g.edges().data(),
                   g.edges().size() * sizeof(VertexId));

    const isa::Program kernel = isa::assemble(R"(
        LI r3, 1
        LI r4, 0
        S_READ r1, r2, r3, r4
        LI r7, 2
        S_READ r5, r6, r7, r4
        S_INTER.C r3, r7, r20, r10
        S_FREE r3
        S_FREE r7
        HALT
    )");

    std::vector<std::uint64_t> ref;
    bool first = true;
    for (const IndexPolicy policy : allPolicies) {
        ScopedIndexPolicyOverride forced(policy);
        std::vector<std::uint64_t> counts;
        isa::Interpreter interp(mem);
        for (VertexId u = 0; u < g.numVertices(); u += 3) {
            for (VertexId v : g.neighbors(u)) {
                interp.setGpr(1, g.edgeListAddr(u));
                interp.setGpr(2, g.degree(u));
                interp.setGpr(5, g.edgeListAddr(v));
                interp.setGpr(6, g.degree(v));
                interp.setGpr(10, v); // R3 bound: count below v
                interp.run(kernel);
                counts.push_back(interp.gpr(20));
            }
        }
        if (first) {
            ref = counts;
            first = false;
        } else {
            EXPECT_EQ(counts, ref) << indexPolicyName(policy);
        }
    }
}

// ---------------- simulated-cycle invariance ----------------

TEST(SetIndexCycles, GoldenTraceReplayInvariantAcrossPolicies)
{
    const auto golden = trace::BytecodeProgram::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    const arch::SparseCoreConfig config;

    Cycles cpu_ref = 0, sc_ref = 0;
    bool first = true;
    for (const IndexPolicy policy : allPolicies) {
        ScopedIndexPolicyOverride forced(policy);
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
            << "CPU replay cycles moved under policy "
            << indexPolicyName(policy);
        EXPECT_EQ(sc_cycles, sc_ref)
            << "SparseCore replay cycles moved under policy "
            << indexPolicyName(policy);
    }
}

TEST(SetIndexCycles, MachineComparisonInvariantAcrossPolicies)
{
    const auto g = autoHubGraph();
    api::Machine machine;
    // Store off: every policy must capture its own trace, or the
    // second policy would replay the first one's capture.
    api::RunOptions opts;
    opts.artifactCache = false;

    std::uint64_t emb_ref = 0;
    Cycles cpu_ref = 0, sc_ref = 0;
    bool first = true;
    for (const IndexPolicy policy : allPolicies) {
        ScopedIndexPolicyOverride forced(policy);
        const auto cmp = machine.compare(
            api::RunRequest::gpm(gpm::GpmApp::T, g, opts));
        EXPECT_FALSE(cmp.trace.traceCacheHit) << indexPolicyName(policy);
        if (first) {
            emb_ref = cmp.functionalResult;
            cpu_ref = cmp.baseline.cycles;
            sc_ref = cmp.accelerated.cycles;
            first = false;
            continue;
        }
        EXPECT_EQ(cmp.functionalResult, emb_ref)
            << indexPolicyName(policy);
        EXPECT_EQ(cmp.baseline.cycles, cpu_ref)
            << indexPolicyName(policy);
        EXPECT_EQ(cmp.accelerated.cycles, sc_ref)
            << indexPolicyName(policy);
    }
}

TEST(SetIndexCycles, ParallelMiningDeterministicAcrossPolicies)
{
    const auto g = autoHubGraph();
    std::uint64_t emb_ref = 0;
    Cycles cyc_ref = 0;
    bool first = true;
    api::HostOptions host;
    host.artifactCache = false; // capture every chunk under each policy
    for (const IndexPolicy policy : allPolicies) {
        ScopedIndexPolicyOverride forced(policy);
        const auto par = api::mineParallelSparseCore(
            gpm::GpmApp::C4, g, 3, arch::SparseCoreConfig{}, 1, host);
        if (first) {
            emb_ref = par.embeddings;
            cyc_ref = par.cycles;
            first = false;
            continue;
        }
        EXPECT_EQ(par.embeddings, emb_ref) << indexPolicyName(policy);
        EXPECT_EQ(par.cycles, cyc_ref) << indexPolicyName(policy);
    }
}

// ---------------- (key,value) relabel round trip ----------------

namespace {

/** A sorted kv stream over the graph's vertex universe with exactly
 *  representable (integer) values, so every accumulation order is
 *  FP-exact and equality checks are legitimately bitwise. */
void
randomKvStream(Rng &rng, VertexId universe, std::size_t n,
               std::vector<Key> &keys, std::vector<Value> &vals)
{
    keys.clear();
    vals.clear();
    for (Key k = 0; k < universe && keys.size() < n; ++k)
        if (rng.below(2) == 0)
            keys.push_back(k);
    for (std::size_t i = 0; i < keys.size(); ++i)
        vals.push_back(static_cast<Value>(1 + rng.below(1000)));
}

} // namespace

TEST(SetIndexRelabel, KvRoundTripLossless)
{
    const auto g = graph::generateChungLu(200, 1500, 80, 2.1, 5);
    const auto idx = g.setIndex();
    ASSERT_NE(idx, nullptr);
    Rng rng(99);
    for (int iter = 0; iter < 16; ++iter) {
        std::vector<Key> keys;
        std::vector<Value> vals;
        randomKvStream(rng, g.numVertices(), 64, keys, vals);

        std::vector<Key> rk, back_k;
        std::vector<Value> rv, back_v;
        idx->relabel(keys, vals, rk, rv);
        ASSERT_EQ(rk.size(), keys.size());
        EXPECT_TRUE(std::is_sorted(rk.begin(), rk.end()));
        // Rank keys pair with their original values.
        for (std::size_t i = 0; i < rk.size(); ++i) {
            const Key orig = idx->originalId(rk[i]);
            const auto it =
                std::lower_bound(keys.begin(), keys.end(), orig);
            ASSERT_TRUE(it != keys.end() && *it == orig);
            EXPECT_EQ(rv[i],
                      vals[static_cast<std::size_t>(it - keys.begin())]);
        }
        idx->restore(rk, rv, back_k, back_v);
        EXPECT_EQ(back_k, keys);
        EXPECT_EQ(back_v, vals);

        // Key-only streams round-trip the same way.
        std::vector<Key> rk2, back_k2;
        std::vector<Value> none, none_out;
        idx->relabel(keys, none, rk2, none);
        EXPECT_EQ(rk2, rk);
        idx->restore(rk2, none, back_k2, none_out);
        EXPECT_EQ(back_k2, keys);
        EXPECT_TRUE(none_out.empty());
    }
}

TEST(SetIndexRelabel, ValueOpsEquivalentThroughRankSpace)
{
    // S_VINTER / S_VMERGE semantics survive a relabel->compute->
    // restore round trip: the same key pairs match (a bijection
    // preserves equality), so with exactly-representable values the
    // results are bitwise identical to computing in original space.
    const auto g = graph::generateChungLu(200, 1500, 80, 2.1, 6);
    const auto idx = g.setIndex();
    ASSERT_NE(idx, nullptr);
    Rng rng(1234);
    for (int iter = 0; iter < 12; ++iter) {
        std::vector<Key> ak, bk;
        std::vector<Value> av, bv;
        randomKvStream(rng, g.numVertices(), 80, ak, av);
        randomKvStream(rng, g.numVertices(), 80, bk, bv);

        std::vector<Key> rak, rbk;
        std::vector<Value> rav, rbv;
        idx->relabel(ak, av, rak, rav);
        idx->relabel(bk, bv, rbk, rbv);

        for (const auto op :
             {ValueOp::Mac, ValueOp::MaxAcc, ValueOp::MinAcc}) {
            const Value ref = valueIntersect(ak, av, bk, bv, op);
            const Value got = valueIntersect(rak, rav, rbk, rbv, op);
            EXPECT_EQ(ref, got) << valueOpName(op);
        }

        std::vector<Key> mk_ref, mk_rank, mk_back;
        std::vector<Value> mv_ref, mv_rank, mv_back;
        valueMerge(ak, av, bk, bv, 2.0, 3.0, mk_ref, mv_ref);
        valueMerge(rak, rav, rbk, rbv, 2.0, 3.0, mk_rank, mv_rank);
        idx->restore(mk_rank, mv_rank, mk_back, mv_back);
        EXPECT_EQ(mk_back, mk_ref);
        EXPECT_EQ(mv_back, mv_ref);
    }
}
