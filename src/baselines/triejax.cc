#include "baselines/triejax.hh"

#include <cmath>

#include "common/logging.hh"

namespace sc::baselines {

using backend::BackendStream;

namespace {

/** PJR cache stands in for the on-chip hierarchy: small L1-like
 *  PJR, a modest L2, then memory. */
sim::MemParams
trieJaxMem(const TrieJaxParams &params)
{
    sim::MemParams mem;
    mem.l1 = {"pjr", params.pjrBytes, 8, 64};
    mem.l2 = {"tj_l2", 2 * 1024 * 1024, 8, 64};
    mem.l3 = {"tj_l3", 4 * 1024 * 1024, 16, 64};
    mem.l1Latency = 2;
    mem.l2Latency = 14;
    mem.l3Latency = 20;
    mem.memLatency = 120;
    return mem;
}

} // namespace

TrieJaxBackend::TrieJaxBackend(unsigned redundancy,
                               std::uint64_t table_rows,
                               const TrieJaxParams &params)
    : redundancy_(redundancy), params_(params), mem_(trieJaxMem(params))
{
    if (redundancy == 0)
        fatal("TrieJax redundancy factor must be positive");
    const double bits =
        std::log2(static_cast<double>(std::max<std::uint64_t>(
            2, table_rows)));
    lubSearchCost_ = static_cast<Cycles>(
        std::ceil(bits) * params.searchStepCost);
}

void
TrieJaxBackend::begin()
{
    cycles_ = 0;
    memCycles_ = 0;
    streams_.clear();
    mem_.reset();
}

sim::CycleBreakdown
TrieJaxBackend::breakdown() const
{
    sim::CycleBreakdown bd;
    bd[sim::CycleClass::Cache] = memCycles_;
    bd[sim::CycleClass::Intersection] =
        cycles_ > memCycles_ ? cycles_ - memCycles_ : 0;
    return bd;
}

BackendStream
TrieJaxBackend::streamLoad(Addr key_addr, std::uint32_t, unsigned,
                           streams::KeySpan)
{
    // Locating the trie node for an edge list costs an LUB binary
    // search on the relation, once per enumerated ordering.
    cycles_ += lubSearchCost_ * redundancy_;
    streams_.push_back(key_addr);
    return static_cast<BackendStream>(streams_.size() - 1);
}

BackendStream
TrieJaxBackend::streamLoadKv(Addr key_addr, Addr, std::uint32_t,
                             unsigned, streams::KeySpan)
{
    return streamLoad(key_addr, 0, 0, {});
}

void
TrieJaxBackend::streamFree(BackendStream)
{
}

Cycles
TrieJaxBackend::pjrAccess(Addr addr, std::uint64_t keys)
{
    if (keys == 0)
        return 0;
    // Entries above the PJR limit are never cached (deallocated on
    // insert): every line comes from beyond the PJR.
    const unsigned line = mem_.params().l1.lineBytes;
    const Addr last = addr + (keys - 1) * sizeof(Key);
    Cycles total = 0;
    if (keys > params_.pjrEntryKeys) {
        for (Addr a = addr / line; a <= last / line; ++a)
            total += mem_.l2Access(a * line);
        // Sequential fetches overlap 4-wide.
        return total / 4;
    }
    for (Addr a = addr / line; a <= last / line; ++a)
        total += mem_.l1Access(a * line);
    return total / 4;
}

void
TrieJaxBackend::joinOp(streams::KeySpan ak, Addr a_addr,
                       streams::KeySpan bk, Addr b_addr)
{
    // Without symmetry breaking TrieJax enumerates every automorphic
    // ordering and cannot use bounds, so the FULL operand lengths are
    // joined, redundancy_ times.
    const std::uint64_t join_steps = ak.size() + bk.size();
    const Cycles mem_cost =
        pjrAccess(a_addr, ak.size()) + pjrAccess(b_addr, bk.size());
    const Cycles compute =
        (join_steps + params_.joinPerCycle - 1) / params_.joinPerCycle;
    cycles_ += redundancy_ * (compute + mem_cost);
    memCycles_ += redundancy_ * mem_cost;
}

BackendStream
TrieJaxBackend::setOp(streams::SetOpKind, BackendStream a,
                      BackendStream b, streams::KeySpan ak,
                      streams::KeySpan bk, Key, streams::KeySpan result,
                      Addr out_addr)
{
    joinOp(ak, streams_.at(a), bk, streams_.at(b));
    (void)result;
    streams_.push_back(out_addr);
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
TrieJaxBackend::setOpCount(streams::SetOpKind, BackendStream a,
                           BackendStream b, streams::KeySpan ak,
                           streams::KeySpan bk, Key, std::uint64_t)
{
    joinOp(ak, streams_.at(a), bk, streams_.at(b));
}

void
TrieJaxBackend::valueIntersect(BackendStream a, BackendStream b,
                               streams::KeySpan ak, streams::KeySpan bk,
                               Addr, Addr,
                               std::span<const std::uint32_t> match_a,
                               std::span<const std::uint32_t>)
{
    joinOp(ak, streams_.at(a), bk, streams_.at(b));
    cycles_ += match_a.size();
}

BackendStream
TrieJaxBackend::valueMerge(BackendStream a, BackendStream b,
                           streams::KeySpan ak, streams::KeySpan bk,
                           Addr, Addr, std::uint64_t, Addr out_addr)
{
    joinOp(ak, streams_.at(a), bk, streams_.at(b));
    streams_.push_back(out_addr);
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
TrieJaxBackend::iterateStream(BackendStream, std::uint64_t n, unsigned)
{
    // Each extension performs an LUB lookup per enumerated ordering.
    cycles_ += redundancy_ * n;
}

} // namespace sc::baselines
