/**
 * @file
 * Multi-core mining (Table 2 configures six cores): the root-vertex
 * loop is split across simulated cores by interleaving, each core
 * owning a private engine — on SparseCore its own SUs, S-Cache,
 * scratchpad and L1/L2 — exactly the replication the paper's per-core
 * extension implies. The parallel runtime is the slowest core's cycle
 * count; graph data is read-only, so no coherence traffic is modeled
 * (§5.1).
 *
 * Host execution: the simulation of the cores itself runs on a host
 * work-stealing pool (common/thread_pool.hh). Each simulated core's
 * root slice is further split into a fixed 4 chunks with a fixed
 * chunk→core mapping, so a skewed degree distribution cannot
 * serialize the host run behind one heavy simulated core. Every
 * chunk's program comes from the ArtifactStore under a key that
 * names no substrate, so a run on one substrate after a run on the
 * other replays the same captures. Chunk results are reduced in
 * chunk-index order, making the returned ParallelGpmResult
 * bit-identical for any host thread count (see DESIGN.md "Host
 * execution model").
 */

#ifndef SPARSECORE_API_PARALLEL_HH
#define SPARSECORE_API_PARALLEL_HH

#include <cstdint>
#include <vector>

#include "api/run.hh"
#include "arch/config.hh"
#include "common/thread_pool.hh"
#include "gpm/apps.hh"

namespace sc::api {

/** Outcome of a multi-core mining run. */
struct ParallelGpmResult
{
    std::uint64_t embeddings = 0; ///< total across cores
    Cycles cycles = 0;            ///< slowest core (wall clock)
    std::vector<Cycles> perCore;  ///< each core's cycle count

    /** Load balance: average / slowest core utilization. */
    double
    balance() const
    {
        if (perCore.empty() || cycles == 0)
            return 0.0;
        double sum = 0;
        for (Cycles c : perCore)
            sum += static_cast<double>(c);
        return sum / perCore.size() / static_cast<double>(cycles);
    }
};

/**
 * Run a GPM app across num_cores cores of `substrate`, each chunk
 * replayed onto a fresh backend built from `config`.
 * @param root_stride extra sampling on top of the core split
 * @param pool the host pool the chunks run on
 */
ParallelGpmResult mineParallel(
    gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_cores,
    Substrate substrate,
    const arch::SparseCoreConfig &config = arch::SparseCoreConfig{},
    unsigned root_stride = 1, ThreadPool &pool = ThreadPool::global());

} // namespace sc::api

#endif // SPARSECORE_API_PARALLEL_HH
