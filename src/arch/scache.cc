#include "arch/scache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::arch {

SCache::SCache(unsigned num_slots, unsigned slot_keys,
               unsigned line_bytes)
    : slots_(num_slots), slotKeys_(slot_keys), lineBytes_(line_bytes)
{
    if (num_slots == 0 || slot_keys < 2 || slot_keys % 2 != 0)
        fatal("S-Cache needs slots with an even number of keys");
    if (line_bytes == 0)
        fatal("S-Cache line size must be positive");
}

Cycles
SCache::allocate(unsigned slot, Addr key_addr, std::uint64_t num_keys,
                 sim::MemHierarchy &mem)
{
    ScacheSlot &s = slots_.at(slot);
    s.valid = true;
    s.baseAddr = key_addr;
    s.streamKeys = num_keys;
    s.residentFrom = 0;
    s.startBit = true;
    ++counters_.allocs;

    // First sub-slot: fetch its cache lines through L2. The fills
    // pipeline, so the latency to first use is the first line's
    // latency plus one transfer cycle per additional line.
    const std::uint64_t fetch_keys =
        std::min<std::uint64_t>(num_keys, subSlotKeys());
    if (fetch_keys == 0)
        return 0;
    const Addr first = key_addr;
    const Addr last = key_addr + (fetch_keys - 1) * sizeof(Key);
    Cycles latency = 0;
    std::uint64_t line_count = 0;
    for (Addr line = first / lineBytes_; line <= last / lineBytes_;
         ++line) {
        const Cycles l = mem.l2Access(line * lineBytes_);
        latency = std::max(latency, l);
        ++line_count;
        ++counters_.refillLines;
    }
    return latency + (line_count > 0 ? line_count - 1 : 0);
}

void
SCache::allocateProduced(unsigned slot, std::uint64_t num_keys)
{
    ScacheSlot &s = slots_.at(slot);
    s.valid = true;
    s.baseAddr = 0;
    s.streamKeys = num_keys;
    s.residentFrom =
        num_keys > slotKeys_ ? num_keys - slotKeys_ : 0;
    s.startBit = num_keys <= slotKeys_;
    ++counters_.producedAllocs;
}

void
SCache::prefetchRemainder(unsigned slot, sim::MemHierarchy &mem)
{
    const ScacheSlot &s = slots_.at(slot);
    if (!s.valid || s.baseAddr == 0)
        return;
    if (s.streamKeys <= subSlotKeys())
        return;
    const Addr first = s.baseAddr + subSlotKeys() * sizeof(Key);
    const Addr last = s.baseAddr + (s.streamKeys - 1) * sizeof(Key);
    for (Addr line = first / lineBytes_; line <= last / lineBytes_;
         ++line) {
        mem.l2Access(line * lineBytes_);
        ++counters_.prefetchLines;
    }
}

std::uint64_t
SCache::writebackProduced(unsigned slot, std::uint64_t total_keys,
                          sim::MemHierarchy &mem)
{
    ScacheSlot &s = slots_.at(slot);
    if (total_keys <= slotKeys_) {
        s.streamKeys = total_keys;
        s.startBit = true;
        s.residentFrom = 0;
        return 0;
    }
    // The most recent slotKeys_ stay resident; earlier keys are
    // written back to L2 (the start bit clears).
    const std::uint64_t spilled = total_keys - slotKeys_;
    const std::uint64_t lines =
        (spilled * sizeof(Key) + lineBytes_ - 1) / lineBytes_;
    // Touch L2 so subsequent consumers find the data there. Writeback
    // addresses are synthetic (produced streams have no base); use a
    // per-slot spill region.
    const Addr spill_base =
        0x700000000ull + static_cast<Addr>(slot) * 0x1000000ull;
    for (std::uint64_t l = 0; l < lines; ++l)
        mem.l2Access(spill_base + l * lineBytes_);
    s.streamKeys = total_keys;
    s.residentFrom = spilled;
    s.startBit = false;
    counters_.writebackLines += lines;
    return lines;
}

void
SCache::release(unsigned slot)
{
    slots_.at(slot) = ScacheSlot{};
}

const ScacheSlot &
SCache::slot(unsigned index) const
{
    return slots_.at(index);
}

StatSet
SCache::stats() const
{
    StatSet s("scache");
    s.counter("allocs") += counters_.allocs;
    s.counter("producedAllocs") += counters_.producedAllocs;
    s.counter("refillLines") += counters_.refillLines;
    s.counter("prefetchLines") += counters_.prefetchLines;
    s.counter("writebackLines") += counters_.writebackLines;
    return s;
}

} // namespace sc::arch
