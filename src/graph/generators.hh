/**
 * @file
 * Deterministic synthetic graph generators.
 *
 * Real datasets (Table 4) are not shipped; generators reproduce each
 * dataset's published vertex count, edge count, average degree and
 * heavy-tailed maximum degree. Chung-Lu matches a target power-law
 * degree sequence; R-MAT gives community-like skew; Erdős–Rényi gives
 * a homogeneous control.
 */

#ifndef SPARSECORE_GRAPH_GENERATORS_HH
#define SPARSECORE_GRAPH_GENERATORS_HH

#include <cstdint>
#include <string>

#include "graph/csr_graph.hh"

namespace sc::graph {

/** Erdős–Rényi G(n, m): m uniform random edges. */
CsrGraph generateErdosRenyi(VertexId num_vertices, std::uint64_t num_edges,
                            std::uint64_t seed,
                            std::string name = "erdos-renyi");

/**
 * Chung-Lu generator with a truncated power-law weight sequence and a
 * wedge-closure pass. Produces expected edge count close to num_edges
 * with maximum degree near max_degree; the closure pass converts a
 * fraction of the edge budget into triangle-closing edges so the
 * synthetic graphs exhibit the clustering real social/citation
 * networks have (plain Chung-Lu has near-zero clustering, which would
 * starve the triangle-based applications).
 *
 * @param num_vertices |V|
 * @param num_edges target undirected |E|
 * @param max_degree target maximum degree (heavy tail cap)
 * @param alpha power-law exponent of the weight sequence (~2.1 for
 *        social graphs)
 * @param closure fraction of edges created by closing wedges
 */
CsrGraph generateChungLu(VertexId num_vertices, std::uint64_t num_edges,
                         std::uint32_t max_degree, double alpha,
                         std::uint64_t seed,
                         std::string name = "chung-lu",
                         double closure = 0.2);

/** R-MAT generator (a=0.57, b=c=0.19 by default). */
CsrGraph generateRmat(VertexId num_vertices_pow2, std::uint64_t num_edges,
                      std::uint64_t seed, double a = 0.57, double b = 0.19,
                      double c = 0.19, std::string name = "rmat");

} // namespace sc::graph

#endif // SPARSECORE_GRAPH_GENERATORS_HH
