#include "sim/core_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace sc::sim {

const char *
cycleClassName(CycleClass cls)
{
    switch (cls) {
      case CycleClass::Cache:
        return "Cache";
      case CycleClass::Mispredict:
        return "Mispred.";
      case CycleClass::OtherCompute:
        return "Other computation";
      case CycleClass::Intersection:
        return "Intersection";
      default:
        panic("unknown cycle class %u", static_cast<unsigned>(cls));
    }
}

double
CycleBreakdown::fraction(CycleClass cls) const
{
    const Cycles sum = total();
    return sum ? static_cast<double>((*this)[cls]) /
                     static_cast<double>(sum)
               : 0.0;
}

CycleBreakdown &
CycleBreakdown::operator+=(const CycleBreakdown &other)
{
    for (unsigned i = 0; i < cycles.size(); ++i)
        cycles[i] += other.cycles[i];
    return *this;
}

CoreModel::CoreModel(const CoreParams &params, const MemParams &mem_params)
    : params_(params), mem_(mem_params)
{
    if (params_.issueWidth == 0)
        fatal("core issue width must be positive");
}

void
CoreModel::chargeMiss(Cycles beyond_l1, unsigned mlp)
{
    breakdown_[CycleClass::Cache] += static_cast<Cycles>(
        std::llround(static_cast<double>(beyond_l1) *
                     params_.missStallFraction / mlp));
}

void
CoreModel::reset()
{
    breakdown_ = CycleBreakdown{};
    predictor_.reset();
    mem_.reset();
}

} // namespace sc::sim
