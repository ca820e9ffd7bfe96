#include "baselines/flexminer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::baselines {

using backend::BackendStream;
using streams::SetOpKind;

namespace {

/** PE-local buffer + 4 MB shared cache + (pass-through) L3. */
sim::MemParams
flexMinerMem(const FlexMinerParams &params)
{
    sim::MemParams mem;
    mem.l1 = {"pe_buf", 64 * 1024, 8, 64};
    mem.l2 = {"shared", params.sharedCacheBytes, 16, 64};
    mem.l3 = {"shadow", 2 * params.sharedCacheBytes, 16, 64};
    mem.l1Latency = 2;
    mem.l2Latency = 16;
    mem.l3Latency = 18;
    mem.memLatency = 120;
    return mem;
}

} // namespace

FlexMinerBackend::FlexMinerBackend(const FlexMinerParams &params)
    : params_(params), mem_(flexMinerMem(params))
{
}

void
FlexMinerBackend::begin()
{
    cycles_ = 0;
    memCycles_ = 0;
    streams_.clear();
    builtCmapAddr_ = 0;
    mem_.reset();
}

sim::CycleBreakdown
FlexMinerBackend::breakdown() const
{
    sim::CycleBreakdown bd;
    bd[sim::CycleClass::Cache] = memCycles_;
    bd[sim::CycleClass::Intersection] =
        cycles_ > memCycles_ ? cycles_ - memCycles_ : 0;
    return bd;
}

void
FlexMinerBackend::scalarOps(std::uint64_t n)
{
    // Hardware FSM: control is deeply pipelined.
    cycles_ += n / 8;
}

void
FlexMinerBackend::scalarBranch(std::uint64_t, bool)
{
    // No speculative core: decisions are part of the pipeline.
}

void
FlexMinerBackend::scalarLoad(Addr addr)
{
    const Cycles latency = mem_.l1Access(addr);
    // Hardware prefetching hides most of it.
    cycles_ += latency / 8;
    memCycles_ += latency / 8;
}

Cycles
FlexMinerBackend::fetchStream(Addr addr, std::uint64_t keys)
{
    if (keys == 0)
        return 0;
    const unsigned line = mem_.params().l2.lineBytes;
    Cycles total = 0;
    const Addr last = addr + (keys - 1) * sizeof(Key);
    for (Addr a = addr / line; a <= last / line; ++a)
        total = std::max(total, mem_.l1Access(a * line));
    // Line fetches pipeline; only the leading latency is exposed.
    return total;
}

BackendStream
FlexMinerBackend::streamLoad(Addr key_addr, std::uint32_t length,
                             unsigned, streams::KeySpan)
{
    streams_.push_back({key_addr, length});
    return static_cast<BackendStream>(streams_.size() - 1);
}

BackendStream
FlexMinerBackend::streamLoadKv(Addr key_addr, Addr, std::uint32_t length,
                               unsigned, streams::KeySpan)
{
    streams_.push_back({key_addr, length});
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
FlexMinerBackend::streamFree(BackendStream)
{
}

void
FlexMinerBackend::cmapOp(streams::KeySpan build_side, Addr build_addr,
                         streams::KeySpan probe_side, Addr probe_addr,
                         Key bound)
{
    // Build phase, amortized across the subtree: FlexMiner constructs
    // the cmap of the anchor vertex's neighbor list once and reuses
    // it while the anchor is fixed.
    if (build_addr == 0 || build_addr != builtCmapAddr_) {
        const Cycles fetch = fetchStream(build_addr, build_side.size());
        cycles_ += fetch;
        memCycles_ += fetch;
        cycles_ +=
            (build_side.size() + params_.buildPerCycle - 1) /
            params_.buildPerCycle;
        builtCmapAddr_ = build_addr;
    }
    // Probe phase: one element per cycle, early-terminated at the
    // bound (probe side is sorted).
    std::uint64_t probes = probe_side.size();
    if (bound != noBound) {
        auto it = std::lower_bound(probe_side.begin(),
                                   probe_side.end(), bound);
        probes = static_cast<std::uint64_t>(it - probe_side.begin());
    }
    const Cycles fetch = fetchStream(probe_addr, probes);
    // Probing overlaps with fetching; the slower of the two governs.
    const Cycles probe_cycles =
        (probes + params_.probesPerCycle - 1) / params_.probesPerCycle;
    if (fetch > probe_cycles) {
        cycles_ += fetch;
        memCycles_ += fetch - probe_cycles;
    } else {
        cycles_ += probe_cycles;
    }
}

BackendStream
FlexMinerBackend::setOp(SetOpKind, BackendStream a, BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Key bound, streams::KeySpan result, Addr out_addr)
{
    // The cmap is built from the anchor (reused) operand — the plan
    // executor always passes the loop-invariant set first — and the
    // varying operand probes it.
    const StreamRec &ra = streams_.at(a);
    const StreamRec &rb = streams_.at(b);
    cmapOp(ak, ra.addr, bk, rb.addr, bound);
    // A stream produced at this address invalidates any cmap that was
    // built from the previous contents of the buffer.
    if (out_addr == builtCmapAddr_)
        builtCmapAddr_ = 0;
    streams_.push_back(
        {out_addr, static_cast<std::uint32_t>(result.size())});
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
FlexMinerBackend::setOpCount(SetOpKind, BackendStream a, BackendStream b,
                             streams::KeySpan ak, streams::KeySpan bk,
                             Key bound, std::uint64_t)
{
    const StreamRec &ra = streams_.at(a);
    const StreamRec &rb = streams_.at(b);
    cmapOp(ak, ra.addr, bk, rb.addr, bound);
}

void
FlexMinerBackend::valueIntersect(BackendStream a, BackendStream b,
                                 streams::KeySpan ak, streams::KeySpan bk,
                                 Addr, Addr,
                                 std::span<const std::uint32_t> match_a,
                                 std::span<const std::uint32_t>)
{
    // FlexMiner targets GPM; value computation falls back to probe +
    // serial MAC.
    setOpCount(SetOpKind::Intersect, a, b, ak, bk, noBound, 0);
    cycles_ += match_a.size();
}

BackendStream
FlexMinerBackend::valueMerge(BackendStream a, BackendStream b,
                             streams::KeySpan ak, streams::KeySpan bk,
                             Addr, Addr, std::uint64_t result_len,
                             Addr out_addr)
{
    (void)a;
    (void)b;
    cycles_ += ak.size() + bk.size() + result_len;
    streams_.push_back(
        {out_addr, static_cast<std::uint32_t>(result_len)});
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
FlexMinerBackend::iterateStream(BackendStream, std::uint64_t n,
                                unsigned)
{
    cycles_ += static_cast<Cycles>(
        static_cast<double>(n) * params_.walkCostPerElement);
}

} // namespace sc::baselines
