/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * This is a functional tag array: it answers hit/miss per access and
 * tracks occupancy; timing (latency composition across levels) is done
 * by MemHierarchy. Matches the zSim-style modeling the paper relies on.
 */

#ifndef SPARSECORE_SIM_CACHE_HH
#define SPARSECORE_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sc::sim {

/** Geometry and behaviour of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
};

/**
 * One level of set-associative cache with true-LRU replacement.
 *
 * Two parallel arrays, numSets x ways, row-major: tags_ holds line+1
 * (0 = invalid) and is all a hit scans; stamps_ holds each way's last
 * use on a clock that ticks per access (0 = invalid, so a fill takes
 * an invalid way before the least recently used one).
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access one line.
     * @param addr byte address
     * @return true on hit; on miss the line is installed.
     */
    bool
    access(Addr addr)
    {
        const Addr tag = (addr >> lineShift_) + 1;
        const std::size_t base = setBase(tag - 1);
        const Addr *tags = tags_.data() + base;
        ++useClock_;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            if (tags[w] == tag) {
                stamps_[base + w] = useClock_;
                ++hits_;
                return true;
            }
        }
        install(base, tag);
        return false;
    }

    /** Probe without installing or touching LRU state. */
    bool contains(Addr addr) const;

    /** Invalidate every line. */
    void flush();

    /** Back to the constructed state: no lines, clock and counters 0. */
    void reset();

    const CacheParams &params() const { return params_; }
    std::uint32_t numSets() const { return numSets_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** Index of the set's first way; power-of-two set counts mask. */
    std::size_t
    setBase(Addr line) const
    {
        const Addr set =
            setsArePow2_ ? line & (numSets_ - 1) : line % numSets_;
        return static_cast<std::size_t>(set) * params_.ways;
    }

    /** Miss: fill an invalid way, else the least recently used one. */
    void install(std::size_t base, Addr tag);

    CacheParams params_;
    unsigned lineShift_ = 0;
    std::uint32_t numSets_;
    bool setsArePow2_ = true;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace sc::sim

#endif // SPARSECORE_SIM_CACHE_HH
