#include "graph/generators.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "graph/graph_builder.hh"

namespace sc::graph {

CsrGraph
generateErdosRenyi(VertexId num_vertices, std::uint64_t num_edges,
                   std::uint64_t seed, std::string name)
{
    if (num_vertices < 2)
        fatal("Erdos-Renyi needs at least two vertices");
    Rng rng(seed);
    GraphBuilder builder(num_vertices);
    // The builder drops duplicates, so retry until the unique-edge
    // target is met (with a generous cap for near-complete graphs).
    const std::uint64_t attempts = num_edges * 10 + 64;
    for (std::uint64_t i = 0; i < attempts &&
                              builder.pendingEdges() < num_edges;
         ++i) {
        auto u = static_cast<VertexId>(rng.below(num_vertices));
        auto v = static_cast<VertexId>(rng.below(num_vertices));
        builder.addEdge(u, v);
    }
    return std::move(builder).build(std::move(name));
}

CsrGraph
generateChungLu(VertexId num_vertices, std::uint64_t num_edges,
                std::uint32_t max_degree, double alpha,
                std::uint64_t seed, std::string name, double closure)
{
    if (num_vertices < 2)
        fatal("Chung-Lu needs at least two vertices");
    if (closure < 0.0 || closure >= 1.0)
        fatal("closure fraction must be in [0, 1)");
    Rng rng(seed);

    // Power-law weights w_i = c * (i+1)^(-1/(alpha-1)), capped so the
    // expected max degree is near max_degree.
    const double gamma = 1.0 / (alpha - 1.0);
    std::vector<double> weights(num_vertices);
    double total = 0.0;
    for (VertexId i = 0; i < num_vertices; ++i) {
        weights[i] = std::pow(static_cast<double>(i + 1), -gamma);
        total += weights[i];
    }
    // Scale so that sum of expected degrees = 2 * num_edges, then cap
    // the head at max_degree.
    const double scale = 2.0 * static_cast<double>(num_edges) / total;
    for (auto &w : weights)
        w = std::min(w * scale, static_cast<double>(max_degree));

    // Build an alias-free sampler: cumulative weights + binary search.
    std::vector<double> cumulative(num_vertices);
    double acc = 0.0;
    for (VertexId i = 0; i < num_vertices; ++i) {
        acc += weights[i];
        cumulative[i] = acc;
    }

    auto sample = [&]() -> VertexId {
        const double r = rng.uniform() * acc;
        auto it = std::lower_bound(cumulative.begin(), cumulative.end(),
                                   r);
        return static_cast<VertexId>(it - cumulative.begin());
    };

    const std::uint64_t base_edges = static_cast<std::uint64_t>(
        static_cast<double>(num_edges) * (1.0 - closure));
    GraphBuilder builder(num_vertices);
    std::vector<std::vector<VertexId>> adjacency(num_vertices);
    auto add_tracked = [&](VertexId u, VertexId v) {
        if (!builder.addEdge(u, v))
            return false;
        adjacency[u].push_back(v);
        adjacency[v].push_back(u);
        return true;
    };

    const std::uint64_t attempts = num_edges * 20 + 64;
    for (std::uint64_t i = 0; i < attempts &&
                              builder.pendingEdges() < base_edges;
         ++i) {
        add_tracked(sample(), sample());
    }

    // Wedge-closure pass: pick a degree-weighted center, connect two
    // of its current neighbors. This is what gives the graph the
    // triangle density of real social/citation networks.
    for (std::uint64_t i = 0; i < attempts &&
                              builder.pendingEdges() < num_edges;
         ++i) {
        const VertexId center = sample();
        const auto &nbrs = adjacency[center];
        if (nbrs.size() < 2)
            continue;
        const VertexId u = nbrs[rng.below(nbrs.size())];
        const VertexId v = nbrs[rng.below(nbrs.size())];
        if (u != v)
            add_tracked(u, v);
    }
    return std::move(builder).build(std::move(name));
}

CsrGraph
generateRmat(VertexId num_vertices_pow2, std::uint64_t num_edges,
             std::uint64_t seed, double a, double b, double c,
             std::string name)
{
    if (num_vertices_pow2 == 0 ||
        (num_vertices_pow2 & (num_vertices_pow2 - 1)) != 0) {
        fatal("R-MAT vertex count must be a power of two");
    }
    unsigned levels = 0;
    while ((VertexId{1} << levels) < num_vertices_pow2)
        ++levels;

    Rng rng(seed);
    GraphBuilder builder(num_vertices_pow2);
    const std::uint64_t attempts = num_edges * 10 + 64;
    for (std::uint64_t i = 0; i < attempts &&
                              builder.pendingEdges() < num_edges;
         ++i) {
        VertexId u = 0, v = 0;
        for (unsigned level = 0; level < levels; ++level) {
            const double r = rng.uniform();
            u <<= 1;
            v <<= 1;
            if (r < a) {
                // top-left quadrant
            } else if (r < a + b) {
                v |= 1;
            } else if (r < a + b + c) {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        builder.addEdge(u, v);
    }
    return std::move(builder).build(std::move(name));
}

} // namespace sc::graph
