/**
 * @file
 * Stream Unit (SU) model (§4.2, Fig. 6): the functional unit that
 * executes set operations with 16-wide parallel comparison and a
 * double-buffered input stage. Exposes the per-operation cycle cost
 * and tracks utilization; scheduling across SUs is the engine's job.
 *
 * Cost-model independence: opCycles() derives time purely from the
 * operand key spans via streams::suCost() — it never calls the
 * host's dispatched SIMD kernels (streams/simd/kernel_table.hh),
 * which only accelerate the *functional* computation of results.
 * Simulated cycles are therefore bit-identical under every kernel
 * level; tests/kernel_table_test.cc replays the golden trace at each
 * level to enforce this (DESIGN.md §10).
 */

#ifndef SPARSECORE_ARCH_STREAM_UNIT_HH
#define SPARSECORE_ARCH_STREAM_UNIT_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "streams/set_ops.hh"

namespace sc::arch {

/** One Stream Unit. */
class StreamUnit
{
  public:
    /**
     * @param window parallel-comparator width (16)
     * @param pipeline_latency fixed start/drain cycles per operation
     */
    StreamUnit(unsigned id, unsigned window, Cycles pipeline_latency);

    /**
     * Cycle cost of one set operation on this SU (Fig. 6 model),
     * including the fixed pipeline latency.
     */
    Cycles opCycles(streams::KeySpan a, streams::KeySpan b,
                    streams::SetOpKind kind, Key bound = noBound) const;

    /** Earliest cycle this SU can accept a new operation. */
    Cycles freeAt() const { return freeAt_; }

    /** Record an operation occupying [start, end). */
    void occupy(Cycles start, Cycles end);

    unsigned id() const { return id_; }
    unsigned window() const { return window_; }
    Cycles busyCycles() const { return busyCycles_; }
    std::uint64_t opsExecuted() const { return ops_; }

    void reset();

  private:
    unsigned id_;
    unsigned window_;
    Cycles pipelineLatency_;
    Cycles freeAt_ = 0;
    Cycles busyCycles_ = 0;
    std::uint64_t ops_ = 0;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_STREAM_UNIT_HH
