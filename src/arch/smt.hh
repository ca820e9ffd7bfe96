/**
 * @file
 * Stream Mapping Table timing model (§4.1).
 *
 * Each entry maps a stream ID to a stream register and carries:
 *  - VD (defined) and VA (active) valid bits: VD clears when S_FREE
 *    decodes, VA clears when S_FREE retires; a register is only
 *    reusable once VA is clear,
 *  - the start (s) and produced (p) bits driven by the S-Cache, and
 *  - pred0/pred1 dependency links to producer streams.
 */

#ifndef SPARSECORE_ARCH_SMT_HH
#define SPARSECORE_ARCH_SMT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sc::arch {

/** Sentinel for "no predecessor". */
constexpr std::uint64_t noPred = ~std::uint64_t{0};

/** One SMT entry. */
struct SmtEntry
{
    std::uint64_t sid = 0;
    unsigned sreg = 0;
    bool vd = false; ///< defined (visible to younger instructions)
    bool va = false; ///< active (register not yet reclaimable)
    bool start = false;    ///< S-Cache holds the stream's first keys
    bool produced = false; ///< whole stream produced
    std::uint64_t pred0 = noPred;
    std::uint64_t pred1 = noPred;
};

/**
 * The SMT. Decode-time define/free plus retire-time release, with the
 * VD/VA semantics of §4.1.
 */
class Smt
{
  public:
    explicit Smt(unsigned num_entries);

    /**
     * Decode of S_READ/S_VREAD/S_INTER-output: map sid to a register.
     * Re-defining a currently defined sid overwrites its mapping.
     * @return the entry index, or nullopt when every register is
     *         active (the defining instruction must stall, §4.1).
     */
    std::optional<unsigned> define(std::uint64_t sid);

    /** Decode of S_FREE: clears VD. Throws SimError if undefined. */
    void decodeFree(std::uint64_t sid);

    /** Retire of S_FREE: clears VA, releasing the register. */
    void retireFree(unsigned entry_index);

    /**
     * Virtualization spill (§4.1): evict one active entry to the
     * special memory region so a new stream can be mapped.
     * @return the spilled entry index
     */
    unsigned spillOne();

    /** Entry for a defined sid; nullopt when not defined. */
    std::optional<unsigned> lookup(std::uint64_t sid) const;

    SmtEntry &
    entry(unsigned index)
    {
        if (index >= entries_.size())
            panic("SMT entry index %u out of range", index);
        return entries_[index];
    }
    const SmtEntry &
    entry(unsigned index) const
    {
        return const_cast<Smt *>(this)->entry(index);
    }

    unsigned numEntries() const
    {
        return static_cast<unsigned>(entries_.size());
    }
    unsigned activeCount() const;
    bool full() const { return activeCount() == numEntries(); }

    /** Event counts; stats() names them as "defines" etc. */
    struct Counters
    {
        std::uint64_t defines = 0;
        std::uint64_t redefines = 0;
        std::uint64_t frees = 0;
        std::uint64_t allocStalls = 0;
        std::uint64_t spills = 0;
    };
    const Counters &counters() const { return counters_; }
    /** Snapshot of counters() by name. */
    StatSet stats() const;

  private:
    /** Index of the entry defining sid (VD set), or numEntries(). */
    unsigned find(std::uint64_t sid) const;

    std::vector<SmtEntry> entries_;
    Counters counters_;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_SMT_HH
