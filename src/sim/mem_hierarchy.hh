/**
 * @file
 * Three-level cache hierarchy + memory timing model (Table 2 config:
 * 32KB/8-way L1D, 256KB/8-way L2, 12MB/16-way L3, 64B lines).
 *
 * access() walks the levels, installs lines on miss and returns the
 * load-to-use latency in cycles. Two entry points exist: l1Access (CPU
 * loads) and l2Access (S-Cache refills, which bypass L1 per §4.3).
 */

#ifndef SPARSECORE_SIM_MEM_HIERARCHY_HH
#define SPARSECORE_SIM_MEM_HIERARCHY_HH

#include "common/types.hh"
#include "sim/cache.hh"

namespace sc::sim {

/** Latency (cycles) and geometry of the full hierarchy. */
struct MemParams
{
    CacheParams l1{"l1d", 32 * 1024, 8, 64};
    CacheParams l2{"l2", 256 * 1024, 8, 64};
    CacheParams l3{"l3", 12 * 1024 * 1024, 16, 64};
    Cycles l1Latency = 4;
    Cycles l2Latency = 12;
    Cycles l3Latency = 38;
    Cycles memLatency = 120;
};

/** Where an access was satisfied. */
enum class MemLevel { L1, L2, L3, Memory };

/** The three-level hierarchy with per-level stats. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemParams &params = MemParams{});

    /** CPU-side load of one byte address; returns load-to-use cycles. */
    Cycles
    l1Access(Addr addr)
    {
        MemLevel level;
        return l1Access(addr, level);
    }
    /** Same but reports the satisfying level. */
    Cycles
    l1Access(Addr addr, MemLevel &level)
    {
        if (l1_.access(addr)) {
            level = MemLevel::L1;
            return params_.l1Latency;
        }
        return params_.l1Latency + l2Access(addr, level);
    }

    /** S-Cache refill path: starts at L2 (bypasses/doesn't pollute L1). */
    Cycles l2Access(Addr addr);
    Cycles l2Access(Addr addr, MemLevel &level);

    const MemParams &params() const { return params_; }
    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }

    std::uint64_t memAccesses() const { return memAccesses_; }
    /** Cold state: every level empty, every counter 0. */
    void reset();

  private:
    MemParams params_;
    Cache l1_;
    Cache l2_;
    Cache l3_;
    std::uint64_t memAccesses_ = 0;
};

} // namespace sc::sim

#endif // SPARSECORE_SIM_MEM_HIERARCHY_HH
