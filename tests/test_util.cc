#include "test_util.hh"

#include <algorithm>
#include <numeric>

#include "api/pipeline.hh"
#include "common/logging.hh"
#include "graph/generators.hh"
#include "graph/graph_builder.hh"
#include "gpm/isomorphism.hh"

namespace sc::test {

std::uint64_t
bruteForceCount(const graph::CsrGraph &g, const gpm::Pattern &p,
                bool vertex_induced)
{
    const unsigned k = p.numVertices();
    const VertexId n = g.numVertices();
    if (n > 64)
        fatal("brute force counting limited to 64 vertices");

    // Count injective homomorphisms, then divide by |Aut(p)|: this
    // equals the symmetry-broken embedding count for both semantics.
    const std::uint64_t aut =
        gpm::automorphisms(p).size();

    std::uint64_t homomorphisms = 0;

    // Iterate k-combinations of [0, n).
    std::vector<VertexId> comb(k);
    std::iota(comb.begin(), comb.end(), 0u);
    if (n < k)
        return 0;
    while (true) {
        // All permutations of this subset.
        std::vector<unsigned> perm(k);
        std::iota(perm.begin(), perm.end(), 0u);
        do {
            bool match = true;
            for (unsigned u = 0; u < k && match; ++u) {
                for (unsigned v = u + 1; v < k && match; ++v) {
                    const bool pe = p.hasEdge(u, v);
                    const bool ge =
                        g.hasEdge(comb[perm[u]], comb[perm[v]]);
                    if (vertex_induced ? pe != ge : (pe && !ge))
                        match = false;
                }
            }
            if (match)
                ++homomorphisms;
        } while (std::next_permutation(perm.begin(), perm.end()));

        // next combination
        int i = static_cast<int>(k) - 1;
        while (i >= 0 && comb[i] == n - k + i)
            --i;
        if (i < 0)
            break;
        ++comb[i];
        for (unsigned j = i + 1; j < k; ++j)
            comb[j] = comb[j - 1] + 1;
    }
    return homomorphisms / aut;
}

graph::CsrGraph
randomTestGraph(VertexId n, std::uint64_t edges, std::uint64_t seed)
{
    return graph::generateErdosRenyi(n, edges, seed, "test-graph");
}

graph::CsrGraph
figureOneGraph()
{
    // An approximation of the paper's Fig. 1(b): seven vertices
    // (paper's 1..7 are 0..6 here) with exactly one triangle
    // {v1, v2, v6} (paper's {2, 3, 7}).
    return graph::buildCsr(7,
                           {{0, 1},
                            {1, 2},
                            {1, 6},
                            {2, 6},
                            {2, 3},
                            {3, 4},
                            {4, 5},
                            {5, 6}},
                           "fig1b");
}

api::RunResult
directRun(const api::RunRequest &req, api::Substrate sub,
          const arch::SparseCoreConfig &config)
{
    return api::execute(req, *api::makeBackend(sub, config));
}

Counts
coreCounts(sim::CoreModel &core)
{
    sim::MemHierarchy &mem = core.mem();
    return {
        {"cycles", core.cycles()},
        {"l1.hits", mem.l1().hits()},
        {"l1.misses", mem.l1().misses()},
        {"l2.hits", mem.l2().hits()},
        {"l2.misses", mem.l2().misses()},
        {"l3.hits", mem.l3().hits()},
        {"l3.misses", mem.l3().misses()},
        {"mem.accesses", mem.memAccesses()},
        {"bp.lookups", core.predictor().lookups()},
        {"bp.mispredicts", core.predictor().mispredicts()},
    };
}

Counts
archCounts(const arch::Engine &engine)
{
    const auto &e = engine.counters();
    const auto &smt = engine.smt().counters();
    const auto &sc = engine.scache().counters();
    const arch::Scratchpad &sp = engine.scratchpad();
    const arch::SvpuCost &svpu = engine.svpu().totals();
    const arch::NestTranslator &tr = engine.translator();
    using streams::SetOpKind;
    const auto op = [&e](SetOpKind kind) {
        return e.ops[static_cast<std::size_t>(kind)];
    };
    return {
        {"engine.streamInstructions", e.streamInstructions},
        {"engine.sread", e.sread},
        {"engine.svread", e.svread},
        {"engine.sfree", e.sfree},
        {"engine.svinter", e.svinter},
        {"engine.svmerge", e.svmerge},
        {"engine.snestinter", e.snestinter},
        {"engine.setOpElements", e.setOpElements},
        {"engine.smtVirtualizationStalls", e.smtVirtualizationStalls},
        {"engine.scratchpadStreamHits", e.scratchpadStreamHits},
        {"engine.op.intersect", op(SetOpKind::Intersect)},
        {"engine.op.subtract", op(SetOpKind::Subtract)},
        {"engine.op.merge", op(SetOpKind::Merge)},
        {"engine.op.nestedIntersect", e.nestedIntersectOps},
        {"smt.defines", smt.defines},
        {"smt.redefines", smt.redefines},
        {"smt.frees", smt.frees},
        {"smt.allocStalls", smt.allocStalls},
        {"smt.spills", smt.spills},
        {"scache.allocs", sc.allocs},
        {"scache.producedAllocs", sc.producedAllocs},
        {"scache.refillLines", sc.refillLines},
        {"scache.prefetchLines", sc.prefetchLines},
        {"scache.writebackLines", sc.writebackLines},
        {"scratchpad.hits", sp.hits()},
        {"scratchpad.misses", sp.missesOrAbsent()},
        {"scratchpad.inserts", sp.inserts()},
        {"scratchpad.evictions", sp.evictions()},
        {"svpu.loads", svpu.loads},
        {"svpu.flops", svpu.flops},
        {"svpu.cycles", svpu.cycles},
        {"translator.elements", tr.elements()},
        {"translator.instructions", tr.instructions()},
    };
}

} // namespace sc::test
