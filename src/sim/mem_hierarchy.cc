#include "sim/mem_hierarchy.hh"

namespace sc::sim {

MemHierarchy::MemHierarchy(const MemParams &params)
    : params_(params), l1_(params.l1), l2_(params.l2), l3_(params.l3)
{
}

Cycles
MemHierarchy::l2Access(Addr addr)
{
    MemLevel level;
    return l2Access(addr, level);
}

Cycles
MemHierarchy::l2Access(Addr addr, MemLevel &level)
{
    if (l2_.access(addr)) {
        level = MemLevel::L2;
        return params_.l2Latency;
    }
    if (l3_.access(addr)) {
        level = MemLevel::L3;
        return params_.l2Latency + params_.l3Latency;
    }
    ++memAccesses_;
    level = MemLevel::Memory;
    return params_.l2Latency + params_.l3Latency + params_.memLatency;
}

void
MemHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    l3_.reset();
    memAccesses_ = 0;
}

} // namespace sc::sim
