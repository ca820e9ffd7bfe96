/**
 * @file
 * Stream Cache (S-Cache) model (§4.3).
 *
 * One slot per stream register (64 keys = 256 B); each slot is split
 * into two sub-slots so refill from L2 overlaps with the transfer of
 * the other sub-slot to an SU (double buffering). The S-Cache sits on
 * top of L2 (key fetches bypass and never pollute L1). Result streams
 * are written back to L2 in slot-sized groups once they outgrow the
 * slot.
 */

#ifndef SPARSECORE_ARCH_SCACHE_HH
#define SPARSECORE_ARCH_SCACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::arch {

/** Per-slot state of the stream cache. */
struct ScacheSlot
{
    bool valid = false;
    Addr baseAddr = 0;          ///< stream's key base (0 for produced)
    std::uint64_t streamKeys = 0; ///< total keys in the stream
    std::uint64_t residentFrom = 0; ///< first resident key index
    bool startBit = true;       ///< slot holds the stream's start
};

/** The S-Cache model. */
class SCache
{
  public:
    /**
     * @param num_slots one per stream register
     * @param slot_keys keys per slot (64 in the paper)
     * @param line_bytes cache line size of the backing L2
     */
    SCache(unsigned num_slots, unsigned slot_keys, unsigned line_bytes);

    /**
     * Begin fetching a memory-backed stream into a slot (S_READ).
     * Issues the first sub-slot's line fills through L2.
     * @return cycles until the first sub-slot is usable by an SU.
     */
    Cycles allocate(unsigned slot, Addr key_addr, std::uint64_t num_keys,
                    sim::MemHierarchy &mem);

    /**
     * Attach a produced (computed) stream to a slot; data arrives from
     * an SU, not memory.
     */
    void allocateProduced(unsigned slot, std::uint64_t num_keys);

    /**
     * Account the L2 traffic of streaming the rest of the stream
     * (prefetch of sub-slots beyond the first). Installs the lines in
     * the L2 tag model; latency is hidden by double buffering.
     */
    void prefetchRemainder(unsigned slot, sim::MemHierarchy &mem);

    /**
     * Write back a produced stream that exceeded the slot (start bit
     * clears; earlier keys go to L2, §4.3).
     * @return number of lines written back
     */
    std::uint64_t writebackProduced(unsigned slot,
                                    std::uint64_t total_keys,
                                    sim::MemHierarchy &mem);

    /** Release a slot (stream freed). */
    void release(unsigned slot);

    const ScacheSlot &slot(unsigned index) const;
    unsigned numSlots() const
    {
        return static_cast<unsigned>(slots_.size());
    }
    unsigned slotKeys() const { return slotKeys_; }
    /** Keys per sub-slot (half a slot). */
    unsigned subSlotKeys() const { return slotKeys_ / 2; }

    std::uint64_t totalSizeBytes() const
    {
        return static_cast<std::uint64_t>(numSlots()) * slotKeys_ *
               sizeof(Key);
    }

    /** Event counts; stats() names them as "allocs" etc. */
    struct Counters
    {
        std::uint64_t allocs = 0;
        std::uint64_t producedAllocs = 0;
        std::uint64_t refillLines = 0;
        std::uint64_t prefetchLines = 0;
        std::uint64_t writebackLines = 0;
    };
    const Counters &counters() const { return counters_; }
    /** Snapshot of counters() by name. */
    StatSet stats() const;

  private:
    std::vector<ScacheSlot> slots_;
    unsigned slotKeys_;
    unsigned lineBytes_;
    Counters counters_;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_SCACHE_HH
