/**
 * @file
 * Stream Value Processing Unit (SVPU) model (§4.5): VA_gen produces
 * value addresses for intersected keys, the load queue fetches values
 * through the normal hierarchy into vBuf entries, and the SVPU
 * combines them (commutative reduction into acc_reg, so no ordering
 * is enforced and loads overlap up to the load queue's MLP).
 */

#ifndef SPARSECORE_ARCH_SVPU_HH
#define SPARSECORE_ARCH_SVPU_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::arch {

/** Result of processing one value-computation burst. */
struct SvpuCost
{
    Cycles cycles = 0;          ///< time to drain all value work
    std::uint64_t loads = 0;    ///< value loads issued
    std::uint64_t flops = 0;    ///< value operations performed
};

/** The SVPU + vBuf + load-queue cost model. */
class Svpu
{
  public:
    /**
     * @param mlp maximum overlapped value loads (load queue share)
     * @param fp_ops_per_cycle SVPU reduction throughput
     */
    Svpu(unsigned mlp, unsigned fp_ops_per_cycle = 1);

    /**
     * Cost of fetching and combining values for n matched keys.
     * Two value loads per match (val0, val1) go through the normal
     * hierarchy; latencies overlap up to the MLP.
     *
     * @param match_val_addrs_a addresses of matched values, operand A
     * @param match_val_addrs_b addresses of matched values, operand B
     */
    SvpuCost process(const std::vector<Addr> &match_val_addrs_a,
                     const std::vector<Addr> &match_val_addrs_b,
                     sim::MemHierarchy &mem);

    /** Sum of every process() result. */
    const SvpuCost &totals() const { return totals_; }

  private:
    unsigned mlp_;
    unsigned fpOpsPerCycle_;
    SvpuCost totals_;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_SVPU_HH
