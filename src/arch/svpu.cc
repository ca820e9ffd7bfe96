#include "arch/svpu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::arch {

Svpu::Svpu(unsigned mlp, unsigned fp_ops_per_cycle)
    : mlp_(mlp), fpOpsPerCycle_(fp_ops_per_cycle)
{
    if (mlp == 0 || fp_ops_per_cycle == 0)
        fatal("SVPU parameters must be positive");
}

SvpuCost
Svpu::process(const std::vector<Addr> &match_val_addrs_a,
              const std::vector<Addr> &match_val_addrs_b,
              sim::MemHierarchy &mem)
{
    if (match_val_addrs_a.size() != match_val_addrs_b.size())
        panic("SVPU operand address lists differ in length");

    SvpuCost cost;
    Cycles total_latency = 0;
    for (std::size_t i = 0; i < match_val_addrs_a.size(); ++i) {
        total_latency += mem.l1Access(match_val_addrs_a[i]);
        total_latency += mem.l1Access(match_val_addrs_b[i]);
        cost.loads += 2;
        ++cost.flops;
    }
    // Loads overlap up to the MLP; the commutative reduction consumes
    // one pair per fpOpsPerCycle_ once both values are ready.
    const Cycles load_time = (total_latency + mlp_ - 1) / mlp_;
    const Cycles fp_time =
        (cost.flops + fpOpsPerCycle_ - 1) / fpOpsPerCycle_;
    cost.cycles = std::max(load_time, fp_time);
    totals_.cycles += cost.cycles;
    totals_.loads += cost.loads;
    totals_.flops += cost.flops;
    return cost;
}

} // namespace sc::arch
