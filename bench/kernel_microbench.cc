/**
 * @file
 * Host set-op kernel microbenchmark: wall-clock throughput of every
 * registered kernel level (scalar / AVX2) on the three stream ops,
 * plus the speedup over the scalar reference, and the hybrid set
 * index's Auto policy against the array-only path. This measures the
 * HOST kernels only — simulated SparseCore cycles are independent of
 * the kernel level by construction (DESIGN.md §10), which
 * tests/kernel_table_test.cc enforces.
 *
 * `--smoke` runs a seconds-long subset for CI (scripts/check.sh).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "backend/functional_backend.hh"
#include "bench_util.hh"
#include "common/rng.hh"
#include "graph/generators.hh"
#include "gpm/apps.hh"
#include "streams/set_ops.hh"
#include "streams/setindex/policy.hh"
#include "streams/setindex/set_index.hh"
#include "streams/simd/kernel_table.hh"

using namespace sc;
using streams::KernelLevel;
using streams::KernelTable;
using streams::SetOpResult;
using streams::setindex::IndexPolicy;
using streams::setindex::ScopedIndexPolicyOverride;

namespace {

/** Sorted duplicate-free stream of n keys drawn below `universe`. */
std::vector<Key>
sortedStream(Rng &rng, std::size_t n, std::uint64_t universe)
{
    std::vector<Key> keys;
    keys.reserve(n + n / 4);
    while (keys.size() < n) {
        const std::size_t need = n - keys.size();
        for (std::size_t i = 0; i < need + need / 8 + 8; ++i)
            keys.push_back(static_cast<Key>(rng.below(universe)));
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    keys.resize(n);
    return keys;
}

struct OpSpec
{
    const char *name;
    SetOpResult (*run)(const KernelTable &, streams::KeySpan,
                       streams::KeySpan, std::vector<Key> *);
};

SetOpResult
runIntersect(const KernelTable &kt, streams::KeySpan a,
             streams::KeySpan b, std::vector<Key> *out)
{
    return kt.intersect(a, b, noBound, out);
}

SetOpResult
runSubtract(const KernelTable &kt, streams::KeySpan a,
            streams::KeySpan b, std::vector<Key> *out)
{
    return kt.subtract(a, b, noBound, out);
}

SetOpResult
runMerge(const KernelTable &kt, streams::KeySpan a, streams::KeySpan b,
         std::vector<Key> *out)
{
    return kt.merge(a, b, out);
}

SetOpResult
runIntersectCount(const KernelTable &kt, streams::KeySpan a,
                  streams::KeySpan b, std::vector<Key> *)
{
    return kt.intersect(a, b, noBound, nullptr);
}

/** Median-free simple measurement: repeat the op over a ring of
 *  operand pairs until min_seconds elapses; report Melem/s over the
 *  total input elements consumed. */
double
measure(const KernelTable &kt, const OpSpec &op,
        const std::vector<std::vector<Key>> &as,
        const std::vector<std::vector<Key>> &bs, double min_seconds,
        std::uint64_t *checksum)
{
    std::vector<Key> out;
    out.reserve(as[0].size() + bs[0].size());
    std::uint64_t sum = 0, elems = 0;
    double seconds = 0;
    // One warm pass over the ring doubles as the checksum (a fixed
    // amount of work, so it is comparable across levels).
    for (std::size_t p = 0; p < as.size(); ++p) {
        out.clear();
        sum += op.run(kt, as[p], bs[p], &out).count;
    }
    *checksum = sum;
    std::uint64_t sink = 0;
    const bench::WallTimer total;
    while ((seconds = total.seconds()) < min_seconds) {
        for (std::size_t p = 0; p < as.size(); ++p) {
            out.clear();
            sink += op.run(kt, as[p], bs[p], &out).count;
            elems += as[p].size() + bs[p].size();
        }
    }
    if (sink == 0x5eedc0de)
        std::printf("\n"); // keep the timed calls observable
    return static_cast<double>(elems) / seconds / 1e6;
}

// ---------------- hybrid set-index sweep ----------------

/**
 * A synthetic CSR graph holding `pairs` (A, B) operand lists as the
 * adjacency lists of its first 2*pairs vertices, with all list keys
 * drawn from the remaining `universe` vertices. After degree
 * relabeling the key vertices (all degree 0, ties broken by ascending
 * id) keep their relative order, so each list's rank range spans the
 * whole universe and its bitmap density is len/universe — which makes
 * `universe` a direct density dial for the sweep.
 */
graph::CsrGraph
makeOperandGraph(Rng &rng, std::size_t universe, std::size_t la,
                 std::size_t lb, std::size_t pairs)
{
    const std::size_t owners = 2 * pairs;
    std::vector<std::uint64_t> offsets = {0};
    std::vector<Key> edges;
    for (std::size_t p = 0; p < pairs; ++p) {
        for (const std::size_t len : {la, lb}) {
            auto keys = sortedStream(rng, len, universe);
            for (Key &k : keys)
                k += static_cast<Key>(owners);
            edges.insert(edges.end(), keys.begin(), keys.end());
            offsets.push_back(edges.size());
        }
    }
    for (std::size_t v = owners; v < owners + universe; ++v)
        offsets.push_back(edges.size());
    return graph::CsrGraph(std::move(offsets), std::move(edges),
                           "operands");
}

/** Counting-intersect throughput of graph-resident operand pairs
 *  under one index policy (runSetOp dispatch picks the format). */
double
measureIndexed(IndexPolicy policy, const graph::CsrGraph &g,
               std::size_t pairs, double min_seconds,
               std::uint64_t *checksum)
{
    ScopedIndexPolicyOverride forced(policy);
    std::uint64_t sum = 0, elems = 0;
    for (std::size_t p = 0; p < pairs; ++p)
        sum += streams::runSetOpCount(streams::SetOpKind::Intersect,
                                      g.neighbors(2 * p),
                                      g.neighbors(2 * p + 1))
                   .count;
    *checksum = sum;
    std::uint64_t sink = 0;
    double seconds = 0;
    const bench::WallTimer total;
    while ((seconds = total.seconds()) < min_seconds) {
        for (std::size_t p = 0; p < pairs; ++p) {
            const auto a = g.neighbors(2 * p);
            const auto b = g.neighbors(2 * p + 1);
            sink += streams::runSetOpCount(streams::SetOpKind::Intersect,
                                           a, b)
                        .count;
            elems += a.size() + b.size();
        }
    }
    if (sink == 0x5eedc0de)
        std::printf("\n");
    return static_cast<double>(elems) / seconds / 1e6;
}

/** Edge-iterator triangle count: one unbounded counting intersect of
 *  full adjacency lists per undirected edge (counts each triangle
 *  three times; only the policy-invariance of the total matters
 *  here). */
std::uint64_t
tcEdgeCount(const graph::CsrGraph &g)
{
    std::uint64_t total = 0;
    for (VertexId u = 0; u < g.numVertices(); ++u)
        for (const Key v : g.neighbors(u)) {
            if (v <= u)
                continue;
            total += streams::runSetOpCount(streams::SetOpKind::Intersect,
                                            g.neighbors(u),
                                            g.neighbors(v), noBound)
                         .count;
        }
    return total;
}

/** Density x skew sweep + dense-neighborhood workload leg for the
 *  hybrid bitmap/array set index; writes BENCH_setindex.json. */
int
runSetIndexBench(bool smoke)
{
    bench::BenchReport report("setindex");
    const std::size_t la = smoke ? 1024 : 4096;
    const std::size_t pairs = smoke ? 4 : 16;
    const double min_seconds = smoke ? 0.02 : 0.2;
    // Densities bracketing the build threshold: a bitmap needs rank
    // density >= 1/64 (1 word per key); below that no bitmap exists
    // and auto collapses to the array kernels.
    const std::size_t inv_densities[] = {4, 16, 64, 256, 1024};
    const std::size_t skews[] = {1, 8, 64};

    std::printf("==== hybrid set-index sweep: density x skew ====\n");
    std::printf("policy rates are counting-intersect dispatch through "
                "runSetOp\n\n");
    Table table({"1/density", "skew", "|A|", "|B|", "array Melem/s",
                 "auto Melem/s", "auto/array"});
    Rng rng(0x5e71d);
    for (const std::size_t skew : skews) {
        for (const std::size_t inv_density : inv_densities) {
            const std::size_t lb = std::max<std::size_t>(la / skew, 8);
            const auto g = makeOperandGraph(rng, la * inv_density, la,
                                            lb, pairs);
            std::uint64_t array_sum = 0, auto_sum = 0;
            const double array_rate =
                measureIndexed(IndexPolicy::ArrayOnly, g, pairs,
                               min_seconds, &array_sum);
            const double auto_rate = measureIndexed(
                IndexPolicy::Auto, g, pairs, min_seconds, &auto_sum);
            if (auto_sum != array_sum) {
                std::fprintf(stderr,
                             "FAIL: setindex checksum mismatch at "
                             "1/density=%zu skew=%zu\n",
                             inv_density, skew);
                return 1;
            }
            table.addRow({std::to_string(inv_density),
                          std::to_string(skew), std::to_string(la),
                          std::to_string(lb), Table::num(array_rate, 1),
                          Table::num(auto_rate, 1),
                          Table::speedup(auto_rate / array_rate)});
        }
    }
    report.emit("hybrid format sweep (counting intersect)", table);

    // Workload leg: clique mining over a power-law graph whose hub
    // neighborhoods are long and (after degree relabeling) dense in
    // rank space — the regime the index was built for. Functional
    // enumeration wall clock only; embeddings must not move.
    const auto g = smoke
                       ? graph::generateChungLu(1200, 30'000, 400, 2.1,
                                                42, "power-law")
                       : graph::generateChungLu(4000, 160'000, 1600,
                                                2.1, 42, "power-law");
    Table workload({"app", "graph", "policy", "host s", "embeddings",
                    "speedup vs array"});
    for (const auto app : {gpm::GpmApp::T, gpm::GpmApp::C4}) {
        double array_seconds = 0;
        std::uint64_t emb_ref = 0;
        const IndexPolicy policies[] = {IndexPolicy::ArrayOnly,
                                        IndexPolicy::Auto};
        for (const IndexPolicy policy : policies) {
            ScopedIndexPolicyOverride forced(policy);
            backend::FunctionalBackend fb;
            const bench::WallTimer timer;
            const auto res = gpm::runGpmApp(app, g, fb);
            const double seconds = timer.seconds();
            if (policy == IndexPolicy::ArrayOnly) {
                array_seconds = seconds;
                emb_ref = res.embeddings;
            } else if (res.embeddings != emb_ref) {
                std::fprintf(stderr,
                             "FAIL: %s embeddings moved under %s\n",
                             gpm::gpmAppName(app),
                             indexPolicyName(policy));
                return 1;
            }
            workload.addRow(
                {gpm::gpmAppName(app), g.name(),
                 indexPolicyName(policy), Table::num(seconds, 3),
                 std::to_string(res.embeddings),
                 Table::speedup(array_seconds / seconds)});
        }
    }
    report.emit("dense-neighborhood workload (functional wall clock)",
                workload);

    // Clique-mining leg: edge-iterator triangle counting — for every
    // edge (u, v) an UNBOUNDED counting intersect of the two full
    // adjacency lists. On a dense power-law graph the degree-ordered
    // relabel packs those lists into few bitmap words, so this leg
    // runs almost entirely on the bitmap x bitmap word-AND kernel —
    // the headline speedup of the hybrid index. (The executor leg
    // above bounds every op for symmetry breaking, which keeps it on
    // the array/probe paths; it is the no-regression floor, this is
    // the win.)
    const auto cg =
        smoke ? graph::generateChungLu(750, 75'000, 700, 1.9, 42,
                                       "power-law-dense")
              : graph::generateChungLu(3000, 900'000, 2800, 1.9, 42,
                                       "power-law-dense");
    Table clique({"app", "graph", "policy", "host s", "triangles",
                  "speedup vs array"});
    {
        double array_seconds = 0;
        std::uint64_t tri_ref = 0;
        const IndexPolicy policies[] = {IndexPolicy::ArrayOnly,
                                        IndexPolicy::Auto};
        for (const IndexPolicy policy : policies) {
            ScopedIndexPolicyOverride forced(policy);
            const bench::WallTimer timer;
            const std::uint64_t tri = tcEdgeCount(cg);
            const double seconds = timer.seconds();
            if (policy == IndexPolicy::ArrayOnly) {
                array_seconds = seconds;
                tri_ref = tri;
            } else if (tri != tri_ref) {
                std::fprintf(stderr,
                             "FAIL: tc-edge count moved under %s\n",
                             indexPolicyName(policy));
                return 1;
            }
            clique.addRow({"tc-edge", cg.name(),
                           indexPolicyName(policy),
                           Table::num(seconds, 3), std::to_string(tri),
                           Table::speedup(array_seconds / seconds)});
        }
    }
    report.emit("clique mining, dense neighborhoods (word-AND path)",
                clique);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const auto levels = streams::availableKernelLevels();
    std::printf("==== kernel microbench: host set-op kernels ====\n");
    std::printf("levels:");
    for (const KernelLevel level : levels)
        std::printf(" %s", streams::kernelLevelName(level));
    std::printf("  (the process default is the widest one; this bench "
                "measures each level explicitly)\n\n");

    const std::vector<std::size_t> lengths =
        smoke ? std::vector<std::size_t>{4096}
              : std::vector<std::size_t>{256, 1024, 4096, 16384, 65536};
    const double min_seconds = smoke ? 0.02 : 0.2;
    const std::size_t ring = smoke ? 8 : 32;

    const OpSpec ops[] = {{"intersect", runIntersect},
                          {"intersect.C", runIntersectCount},
                          {"subtract", runSubtract},
                          {"merge", runMerge}};

    bench::BenchReport report("kernels");
    Table table({"op", "n", "kernel", "Melem/s", "speedup"});
    Rng rng(0xbe7c4);
    for (const std::size_t n : lengths) {
        // Universe 4n: ~25% hit rate, the dense-ish regime GPM streams
        // live in. Fresh operands per length, shared across levels.
        std::vector<std::vector<Key>> as, bs;
        for (std::size_t p = 0; p < ring; ++p) {
            as.push_back(sortedStream(rng, n, 4 * n));
            bs.push_back(sortedStream(rng, n, 4 * n));
        }
        for (const OpSpec &op : ops) {
            double scalar_rate = 0;
            std::uint64_t scalar_sum = 0;
            for (const KernelLevel level : levels) {
                std::uint64_t sum = 0;
                const double rate =
                    measure(streams::kernelsFor(level), op, as, bs,
                            min_seconds, &sum);
                if (level == KernelLevel::Scalar) {
                    scalar_rate = rate;
                    scalar_sum = sum;
                } else if (sum != scalar_sum) {
                    std::fprintf(stderr,
                                 "FAIL: %s n=%zu %s checksum "
                                 "mismatch\n",
                                 op.name, n,
                                 streams::kernelLevelName(level));
                    return 1;
                }
                table.addRow({op.name, std::to_string(n),
                              streams::kernelLevelName(level),
                              Table::num(rate, 1),
                              Table::speedup(rate / scalar_rate)});
            }
        }
    }
    report.emit("set-op kernel throughput (wall clock)", table);
    report.finish();
    return runSetIndexBench(smoke);
}
