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
#include <utility>
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
 * an invalid way before the least recently used one). Way 0 of a set
 * holds its most recently used line: an access checks it before it
 * scans the rest, and moves the line it hits or fills there, the line
 * it displaces taking that line's way. Lines in a set are distinct
 * and which invalid way a fill takes is invisible, so hits, misses
 * and victims are those of a fixed layout; only the search order
 * changes.
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
        Addr *tags = tags_.data() + base;
        std::uint64_t *stamps = stamps_.data() + base;
        ++useClock_;
        if (tags[0] != tag) {
            std::uint32_t way = 1;
            while (way < params_.ways && tags[way] != tag)
                ++way;
            const bool hit = way < params_.ways;
            if (!hit)
                way = install(base, tag);
            std::swap(tags[0], tags[way]);
            std::swap(stamps[0], stamps[way]);
            if (!hit)
                return false;
        }
        stamps[0] = useClock_;
        ++hits_;
        return true;
    }

    /** A load cursor's remembered line: the tag-array slot that held
     *  it at its last access (tag 0: nothing remembered). */
    struct Cursor
    {
        Addr tag = 0;
        std::size_t slot = 0;
    };

    /** The cursor for addr's line, valid right after access(addr),
     *  which left the line in way 0 of its set. */
    Cursor
    cursorAt(Addr addr) const
    {
        const Addr tag = (addr >> lineShift_) + 1;
        return {tag, setBase(tag - 1)};
    }

    /**
     * The hit path's state as a value, so a loop that hits remembered
     * lines can keep the clock and the hit count in registers:
     * regs() copies them out and store() writes them back, which
     * must happen before any access() and at the end. A hit through
     * Regs does what access() does on a hit, less the search.
     */
    struct Regs
    {
        const Addr *tags;
        std::uint64_t *stamps;
        unsigned lineShift;
        std::uint64_t clock;
        std::uint64_t hits;

        Addr tagOf(Addr addr) const { return (addr >> lineShift) + 1; }
        /** True while the cursor's slot still holds its line. */
        bool holds(const Cursor &c) const { return tags[c.slot] == c.tag; }
        /** A hit on the cursor's line when `executed`, nothing
         *  otherwise, without a host branch. The line must be held. */
        void
        hit(const Cursor &c, bool executed)
        {
            clock += executed;
            hits += executed;
            std::uint64_t &stamp = stamps[c.slot];
            stamp += (clock - stamp) & (std::uint64_t{0} - executed);
        }
    };

    Regs
    regs()
    {
        return {tags_.data(), stamps_.data(), lineShift_, useClock_,
                hits_};
    }
    void
    store(const Regs &r)
    {
        useClock_ = r.clock;
        hits_ = r.hits;
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

    /** Miss: fill an invalid way, else the least recently used one.
     *  @return the filled way */
    std::uint32_t install(std::size_t base, Addr tag);

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
