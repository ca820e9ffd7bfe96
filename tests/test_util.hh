/**
 * @file
 * Shared helpers for the test suite: small deterministic graphs,
 * brute-force embedding counting, the direct-execution reference
 * replays are checked against, and convenience builders.
 */

#ifndef SPARSECORE_TESTS_TEST_UTIL_HH
#define SPARSECORE_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/run.hh"
#include "arch/config.hh"
#include "arch/engine.hh"
#include "sim/core_model.hh"
#include "graph/csr_graph.hh"
#include "gpm/pattern.hh"

namespace sc::test {

/** Brute-force count of pattern embeddings (distinct vertex sets
 *  whose induced/edge-induced subgraph matches). Exponential; only
 *  for graphs with <= ~40 vertices. */
std::uint64_t bruteForceCount(const graph::CsrGraph &g,
                              const gpm::Pattern &p,
                              bool vertex_induced);

/** A deterministic random graph for property tests. */
graph::CsrGraph randomTestGraph(VertexId n, std::uint64_t edges,
                                std::uint64_t seed);

/** The 7-vertex example graph of the paper's Fig. 1(b). */
graph::CsrGraph figureOneGraph();

/** Direct execution of `req` on the timing backend for `sub`
 *  (api::execute on a fresh api::makeBackend, no capture): the
 *  reference every replay, cold or warm, must match. */
api::RunResult directRun(const api::RunRequest &req, api::Substrate sub,
                         const arch::SparseCoreConfig &config = {});

/** Counter snapshots by name. */
using Counts = std::map<std::string, std::uint64_t>;

/** Cycles, each cache level's hits and misses, memory accesses and
 *  gshare lookups and mispredicts of a core model. */
Counts coreCounts(sim::CoreModel &core);

/** Every counter of the SparseCore engine and its stream-side
 *  components (SMT, S-Cache, scratchpad, SVPU, nested translator). */
Counts archCounts(const arch::Engine &engine);

} // namespace sc::test

#endif // SPARSECORE_TESTS_TEST_UTIL_HH
