#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace sc::sim {

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    if (!std::has_single_bit(params_.lineBytes))
        fatal("cache %s: line size must be a power of two",
              params_.name.c_str());
    if (params_.ways == 0)
        fatal("cache %s: needs at least one way", params_.name.c_str());
    std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    if (lines == 0 || lines % params_.ways != 0)
        fatal("cache %s: size %llu not divisible into %u ways",
              params_.name.c_str(),
              static_cast<unsigned long long>(params_.sizeBytes),
              params_.ways);
    lineShift_ = static_cast<unsigned>(std::countr_zero(params_.lineBytes));
    numSets_ = static_cast<std::uint32_t>(lines / params_.ways);
    setsArePow2_ = std::has_single_bit(numSets_);
    tags_.resize(lines);
    stamps_.resize(lines);
}

std::uint32_t
Cache::install(std::size_t base, Addr tag)
{
    // Stamps of valid ways are distinct and nonzero, so the first
    // minimum is the one invalid or least recently used way.
    std::uint64_t *set = stamps_.data() + base;
    std::uint64_t *victim = std::min_element(set, set + params_.ways);
    tags_[static_cast<std::size_t>(victim - stamps_.data())] = tag;
    *victim = useClock_;
    ++misses_;
    return static_cast<std::uint32_t>(victim - set);
}

bool
Cache::contains(Addr addr) const
{
    const Addr tag = (addr >> lineShift_) + 1;
    const Addr *set = tags_.data() + setBase(tag - 1);
    return std::find(set, set + params_.ways, tag) != set + params_.ways;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), 0);
    std::fill(stamps_.begin(), stamps_.end(), 0);
}

void
Cache::reset()
{
    // Every access ticks the clock, so at 0 the arrays are still as
    // constructed and a fresh cache skips the fill.
    if (useClock_ != 0)
        flush();
    useClock_ = hits_ = misses_ = 0;
}

} // namespace sc::sim
