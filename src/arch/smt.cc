#include "arch/smt.hh"

#include "common/logging.hh"

namespace sc::arch {

Smt::Smt(unsigned num_entries) : entries_(num_entries)
{
    if (num_entries == 0)
        fatal("SMT requires at least one entry");
    for (unsigned i = 0; i < num_entries; ++i)
        entries_[i].sreg = i;
}

unsigned
Smt::find(std::uint64_t sid) const
{
    unsigned i = 0;
    while (i < entries_.size() &&
           !(entries_[i].vd && entries_[i].sid == sid))
        ++i;
    return i;
}

std::optional<unsigned>
Smt::define(std::uint64_t sid)
{
    const unsigned defined = find(sid);
    if (defined < entries_.size()) {
        // §3.3: re-defining an active sid overwrites the mapping.
        SmtEntry &e = entries_[defined];
        e.start = e.produced = false;
        e.pred0 = e.pred1 = noPred;
        ++counters_.redefines;
        return defined;
    }
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].va) {
            SmtEntry &e = entries_[i];
            e.sid = sid;
            e.vd = e.va = true;
            e.start = e.produced = false;
            e.pred0 = e.pred1 = noPred;
            ++counters_.defines;
            return i;
        }
    }
    ++counters_.allocStalls;
    return std::nullopt;
}

void
Smt::decodeFree(std::uint64_t sid)
{
    const unsigned defined = find(sid);
    if (defined == entries_.size())
        panic("S_FREE of undefined stream id %llu",
              static_cast<unsigned long long>(sid));
    entries_[defined].vd = false;
    ++counters_.frees;
}

void
Smt::retireFree(unsigned entry_index)
{
    SmtEntry &e = entry(entry_index);
    if (e.vd)
        panic("retiring S_FREE for an entry still defined");
    e.va = false;
    e.start = e.produced = false;
}

unsigned
Smt::spillOne()
{
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (entries_[i].va) {
            entries_[i].va = false;
            entries_[i].vd = false;
            ++counters_.spills;
            return i;
        }
    }
    panic("spillOne called on an empty SMT");
}

std::optional<unsigned>
Smt::lookup(std::uint64_t sid) const
{
    const unsigned defined = find(sid);
    if (defined == entries_.size())
        return std::nullopt;
    return defined;
}

unsigned
Smt::activeCount() const
{
    unsigned count = 0;
    for (const auto &e : entries_)
        if (e.va)
            ++count;
    return count;
}

StatSet
Smt::stats() const
{
    StatSet s("smt");
    s.counter("defines") += counters_.defines;
    s.counter("redefines") += counters_.redefines;
    s.counter("frees") += counters_.frees;
    s.counter("allocStalls") += counters_.allocStalls;
    s.counter("spills") += counters_.spills;
    return s;
}

} // namespace sc::arch
