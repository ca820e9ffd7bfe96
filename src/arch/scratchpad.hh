/**
 * @file
 * Stream scratchpad (§4.2): a software-managed buffer shared by all
 * SUs that pins high-priority (reused) streams, avoiding repeated
 * refills from the cache hierarchy. Residency is tracked per stream
 * base address with LRU replacement at key granularity.
 */

#ifndef SPARSECORE_ARCH_SCRATCHPAD_HH
#define SPARSECORE_ARCH_SCRATCHPAD_HH

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/types.hh"

namespace sc::arch {

/** LRU key-granularity scratchpad model. */
class Scratchpad
{
  public:
    /** @param capacity_bytes total size; keys are 4 bytes each. */
    explicit Scratchpad(std::uint64_t capacity_bytes);

    /**
     * Look up a stream by base address; on hit the entry is touched.
     * @return true when the stream's keys are resident.
     */
    bool lookup(Addr key_addr);

    /**
     * Insert a stream (called for priority > 0 streams on first use).
     * Streams larger than the whole scratchpad are not inserted.
     */
    void insert(Addr key_addr, std::uint64_t num_keys);

    /** Remove a stream (invalidation on overwrite). */
    void invalidate(Addr key_addr);

    std::uint64_t capacityKeys() const { return capacityKeys_; }
    std::uint64_t usedKeys() const { return usedKeys_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t missesOrAbsent() const { return misses_; }
    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Entry
    {
        Addr addr;
        std::uint64_t keys;
    };

    void evictFor(std::uint64_t needed_keys);

    std::uint64_t capacityKeys_;
    std::uint64_t usedKeys_ = 0;
    std::list<Entry> lru_; // front = most recent
    std::unordered_map<Addr, std::list<Entry>::iterator> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_SCRATCHPAD_HH
