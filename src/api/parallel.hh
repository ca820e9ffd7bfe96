/**
 * @file
 * Multi-core mining (Table 2 configures six cores): the root-vertex
 * loop is split across simulated cores by interleaving, each core
 * owning a private SparseCore engine — its own SUs, S-Cache,
 * scratchpad and L1/L2 — exactly the replication the paper's per-core
 * extension implies. The parallel runtime is the slowest core's cycle
 * count; graph data is read-only, so no coherence traffic is modeled
 * (§5.1).
 *
 * Host execution: the simulation of the cores itself runs on the
 * host work-stealing pool (common/thread_pool.hh). Each simulated
 * core's root slice is further split into chunksPerCore chunks with a
 * fixed chunk→core mapping, so a skewed degree distribution cannot
 * serialize the host run behind one heavy simulated core. Chunk
 * results are reduced in chunk-index order, making the returned
 * ParallelGpmResult bit-identical for any host thread count (see
 * DESIGN.md "Host execution model").
 */

#ifndef SPARSECORE_API_PARALLEL_HH
#define SPARSECORE_API_PARALLEL_HH

#include <cstdint>
#include <vector>

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

/** Host-side execution knobs for the multi-core runs. */
struct HostOptions
{
    /** Pool to run on; nullptr = ThreadPool::global(). */
    ThreadPool *pool = nullptr;
    /**
     * Root-loop chunks per simulated core (K): the run is split into
     * K * num_cores dynamically-stolen chunks; chunk m is attributed
     * to simulated core m % num_cores. K = 1 reproduces the legacy
     * one-session-per-core split exactly.
     */
    unsigned chunksPerCore = 4;
};

/**
 * Run a GPM app across num_cores SparseCore cores.
 * @param root_stride extra sampling on top of the core split
 * @param host host-parallelism knobs (pool, chunking)
 */
ParallelGpmResult mineParallelSparseCore(
    gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_cores,
    const arch::SparseCoreConfig &config = arch::SparseCoreConfig{},
    unsigned root_stride = 1, const HostOptions &host = HostOptions{});

/** The CPU-baseline equivalent (one scalar core per slice). */
ParallelGpmResult mineParallelCpu(
    gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_cores,
    const arch::SparseCoreConfig &config = arch::SparseCoreConfig{},
    unsigned root_stride = 1, const HostOptions &host = HostOptions{});

/** Multi-core comparison sharing one capture per chunk. */
struct ParallelComparison
{
    std::uint64_t functionalResult = 0; ///< total embeddings
    ParallelGpmResult baseline;         ///< CPU cores
    ParallelGpmResult accelerated;      ///< SparseCore cores

    double
    speedup() const
    {
        return accelerated.cycles
                   ? static_cast<double>(baseline.cycles) /
                         static_cast<double>(accelerated.cycles)
                   : 0.0;
    }
};

/**
 * Run a GPM app across num_cores cores on BOTH substrates. Each
 * root-loop chunk's event trace is captured once and replayed onto a
 * private CPU and a private SparseCore backend, so the functional
 * enumeration cost is paid once instead of per substrate. Both
 * results are bit-identical to the corresponding mineParallel* call.
 */
ParallelComparison compareParallelGpm(
    gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_cores,
    const arch::SparseCoreConfig &config = arch::SparseCoreConfig{},
    unsigned root_stride = 1, const HostOptions &host = HostOptions{});

} // namespace sc::api

#endif // SPARSECORE_API_PARALLEL_HH
