#include "arch/scratchpad.hh"

#include "common/logging.hh"

namespace sc::arch {

Scratchpad::Scratchpad(std::uint64_t capacity_bytes)
    : capacityKeys_(capacity_bytes / sizeof(Key))
{
    if (capacityKeys_ == 0)
        fatal("scratchpad must hold at least one key");
}

bool
Scratchpad::lookup(Addr key_addr)
{
    auto it = index_.find(key_addr);
    if (it == index_.end()) {
        ++misses_;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return true;
}

void
Scratchpad::insert(Addr key_addr, std::uint64_t num_keys)
{
    if (num_keys == 0 || num_keys > capacityKeys_)
        return;
    auto it = index_.find(key_addr);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    evictFor(num_keys);
    lru_.push_front({key_addr, num_keys});
    index_[key_addr] = lru_.begin();
    usedKeys_ += num_keys;
    ++inserts_;
}

void
Scratchpad::invalidate(Addr key_addr)
{
    auto it = index_.find(key_addr);
    if (it == index_.end())
        return;
    usedKeys_ -= it->second->keys;
    lru_.erase(it->second);
    index_.erase(it);
}

void
Scratchpad::evictFor(std::uint64_t needed_keys)
{
    while (usedKeys_ + needed_keys > capacityKeys_ && !lru_.empty()) {
        const Entry &victim = lru_.back();
        usedKeys_ -= victim.keys;
        index_.erase(victim.addr);
        lru_.pop_back();
        ++evictions_;
    }
}

} // namespace sc::arch
