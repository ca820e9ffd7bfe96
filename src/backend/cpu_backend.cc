#include "backend/cpu_backend.hh"

#include "common/logging.hh"

namespace sc::backend {

using sim::CycleClass;
using streams::SetOpKind;
using streams::StepOutcome;

namespace {

/** Synthetic branch pc per static branch site. */
constexpr std::uint64_t pcMatchBranch = 0x40;
constexpr std::uint64_t pcAdvanceBranch = 0x44;
constexpr std::uint64_t pcLoopBranch = 0x48;

} // namespace

CpuBackend::CpuBackend(const sim::CoreParams &core,
                       const sim::MemParams &mem,
                       const CpuCostParams &costs)
    : core_(core, mem), costs_(costs)
{
}

void
CpuBackend::begin()
{
    core_.reset();
    streams_.clear();
}

Cycles
CpuBackend::finish()
{
    return core_.cycles();
}

sim::CycleBreakdown
CpuBackend::breakdown() const
{
    return core_.breakdown();
}

CpuBackend::StreamRec &
CpuBackend::rec(BackendStream handle)
{
    if (handle >= streams_.size())
        panic("invalid CPU backend stream handle %u", handle);
    return streams_[handle];
}

BackendStream
CpuBackend::streamLoad(Addr key_addr, std::uint32_t length, unsigned,
                       streams::KeySpan)
{
    core_.executeOps(costs_.opsPerStreamSetup);
    streams_.push_back({key_addr, 0, length});
    return static_cast<BackendStream>(streams_.size() - 1);
}

BackendStream
CpuBackend::streamLoadKv(Addr key_addr, Addr val_addr,
                         std::uint32_t length, unsigned,
                         streams::KeySpan)
{
    core_.executeOps(costs_.opsPerStreamSetup);
    streams_.push_back({key_addr, val_addr, length});
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
CpuBackend::streamFree(BackendStream handle)
{
    rec(handle); // validity check; frees are free on a CPU
}

void
CpuBackend::mergeLoop(SetOpKind kind, const StreamRec &ra,
                      const StreamRec &rb, streams::KeySpan ak,
                      streams::KeySpan bk, Key bound, Addr out_addr,
                      bool producing)
{
    const CycleClass cls = CycleClass::Intersection;
    std::uint64_t out_index = 0;

    // Optimized baselines gallop when the operands are severely
    // skewed: iterate the short side, binary-search the long side.
    // (TACO and hand-tuned mining codes both do this.)
    if (kind == SetOpKind::Intersect && !producing &&
        !ak.empty() && !bk.empty()) {
        const std::size_t shorter = std::min(ak.size(), bk.size());
        const std::size_t longer = std::max(ak.size(), bk.size());
        if (longer >= 32 * shorter) {
            const StreamRec &rshort =
                ak.size() <= bk.size() ? ra : rb;
            unsigned search_steps = 1;
            while ((1ull << search_steps) < longer)
                ++search_steps;
            for (std::size_t i = 0; i < shorter; ++i) {
                core_.load(rshort.keyAddr + i * sizeof(Key), cls);
                // Binary search: data-dependent branches + loads.
                core_.executeOps(2 * search_steps, cls);
                core_.loadOverlapped(
                    (ak.size() <= bk.size() ? rb : ra).keyAddr +
                        (i * 2654435761u) % (longer * sizeof(Key)),
                    2, cls);
                core_.executeBranch(pcMatchBranch, i % 3 == 0, cls);
            }
            return;
        }
    }

    // Initial element loads.
    if (!ak.empty())
        core_.load(ra.keyAddr, cls);
    if (!bk.empty())
        core_.load(rb.keyAddr, cls);

    std::size_t ia = 0, ib = 0;
    auto on_step = [&](StepOutcome outcome) {
        core_.executeOps(costs_.opsPerStep, cls);
        // Branch structure of the Fig. 4(a) loop:
        //   if (cmp == 0) ... else if (cmp < 0) ... else ...
        const bool match = outcome == StepOutcome::Match;
        core_.executeBranch(pcMatchBranch, match, cls);
        if (!match) {
            core_.executeBranch(pcAdvanceBranch,
                                outcome == StepOutcome::AdvanceA, cls);
        }
        // Element loads on pointer advance; sequential accesses hit
        // L1 after the first line.
        if (match || outcome == StepOutcome::AdvanceA) {
            ++ia;
            if (ia < ak.size())
                core_.load(ra.keyAddr + ia * sizeof(Key), cls);
        }
        if (match || outcome == StepOutcome::AdvanceB) {
            ++ib;
            if (ib < bk.size())
                core_.load(rb.keyAddr + ib * sizeof(Key), cls);
        }
        // Output handling.
        const bool emits =
            (kind == SetOpKind::Intersect && match) ||
            (kind == SetOpKind::Subtract &&
             outcome == StepOutcome::AdvanceA) ||
            kind == SetOpKind::Merge;
        if (emits) {
            core_.executeOps(costs_.opsPerOutput, cls);
            if (producing && out_addr != 0)
                core_.load(out_addr + out_index * sizeof(Key), cls);
            ++out_index;
        }
        // The loop-closing bounds check fuses with the advance
        // branches in compiled code; charge its ALU work only.
        core_.executeOps(1, cls);
    };

    // Deliberately the scalar reference templates, NOT runSetOp():
    // this walk IS the modeled CPU — every visitor step drives the
    // branch predictor and per-step ALU charges, so it must stay
    // scalar no matter which host kernel level is active.
    switch (kind) {
      case SetOpKind::Intersect:
        streams::intersect(ak, bk, bound, nullptr, on_step);
        break;
      case SetOpKind::Subtract:
        streams::subtract(ak, bk, bound, nullptr, on_step);
        break;
      case SetOpKind::Merge:
        streams::merge(ak, bk, nullptr, on_step);
        break;
    }
    // Loop exit branch (not taken).
    core_.executeBranch(pcLoopBranch, false, cls);
}

BackendStream
CpuBackend::setOp(SetOpKind kind, BackendStream a, BackendStream b,
                  streams::KeySpan ak, streams::KeySpan bk, Key bound,
                  streams::KeySpan result, Addr out_addr)
{
    mergeLoop(kind, rec(a), rec(b), ak, bk, bound, out_addr, true);
    streams_.push_back(
        {out_addr, 0, static_cast<std::uint32_t>(result.size())});
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
CpuBackend::setOpCount(SetOpKind kind, BackendStream a, BackendStream b,
                       streams::KeySpan ak, streams::KeySpan bk,
                       Key bound, std::uint64_t)
{
    mergeLoop(kind, rec(a), rec(b), ak, bk, bound, 0, false);
}

void
CpuBackend::valueIntersect(BackendStream a, BackendStream b,
                           streams::KeySpan ak, streams::KeySpan bk,
                           Addr a_val_base, Addr b_val_base,
                           std::span<const std::uint32_t> match_a,
                           std::span<const std::uint32_t> match_b)
{
    mergeLoop(SetOpKind::Intersect, rec(a), rec(b), ak, bk, noBound, 0,
              false);
    // Per match: two value loads plus a fused multiply-accumulate.
    const CycleClass cls = CycleClass::Intersection;
    for (std::size_t i = 0; i < match_a.size(); ++i) {
        core_.load(a_val_base + match_a[i] * sizeof(Value), cls);
        core_.load(b_val_base + match_b[i] * sizeof(Value), cls);
        core_.executeOps(1, cls);
    }
}

void
CpuBackend::denseValueIntersect(BackendStream a, BackendStream,
                                streams::KeySpan ak, streams::KeySpan,
                                Addr a_val_base, Addr b_val_base,
                                std::span<const std::uint32_t> match_a,
                                std::span<const std::uint32_t> match_b)
{
    // TACO's dense-operand kernel: iterate the sparse fiber and
    // gather v[key] directly — no merge walk, no data-dependent
    // branches.
    const CycleClass cls = CycleClass::Intersection;
    const StreamRec &ra = rec(a);
    for (std::size_t i = 0; i < match_a.size(); ++i) {
        core_.load(ra.keyAddr + match_a[i] * sizeof(Key), cls);
        core_.load(a_val_base + match_a[i] * sizeof(Value), cls);
        core_.loadOverlapped(
            b_val_base + match_b[i] * sizeof(Value), 4, cls);
        core_.executeOps(3, cls); // addr gen + FMA + loop
    }
    (void)ak;
}

BackendStream
CpuBackend::valueMerge(BackendStream a, BackendStream b,
                       streams::KeySpan ak, streams::KeySpan bk,
                       Addr a_val_base, Addr b_val_base,
                       std::uint64_t result_len, Addr out_addr)
{
    // TACO-generated CPU code implements merge-class accumulation
    // with a dense WORKSPACE, not a list merge: each update gathers
    // the B value, scatters into the workspace slot indexed by the
    // key, and appends newly-touched keys to the nonzero list. No
    // data-dependent branches, so this is far faster than the naive
    // Fig. 4(c) loop — exactly why the paper's merge-class speedups
    // are modest.
    (void)a;
    (void)a_val_base;
    const CycleClass cls = CycleClass::Intersection;
    const StreamRec &rb = rec(b);
    for (std::size_t i = 0; i < bk.size(); ++i) {
        core_.load(rb.keyAddr + i * sizeof(Key), cls);  // B key
        core_.load(b_val_base + i * sizeof(Value), cls); // B value
        // Workspace slot, indexed by the key: the scatters are
        // independent, so their misses overlap in the OOO window.
        core_.loadOverlapped(out_addr + bk[i] * sizeof(Value), 4,
                             cls);
        core_.executeOps(3, cls); // addr gen + FMA + occupancy flag
    }
    // Newly-touched keys append to the output index list.
    const std::uint64_t fresh =
        result_len > ak.size() ? result_len - ak.size() : 0;
    core_.executeOps(2 * fresh, cls);
    streams_.push_back(
        {out_addr, 0, static_cast<std::uint32_t>(result_len)});
    return static_cast<BackendStream>(streams_.size() - 1);
}

void
CpuBackend::consumeStream(BackendStream handle)
{
    if (handle != noStream)
        rec(handle); // in-order model: results are already visible
}

void
CpuBackend::iterateStream(BackendStream handle, std::uint64_t n,
                          unsigned ops_per_element)
{
    // noStream: a plain counted loop with no element loads.
    const Addr key_addr =
        handle == noStream ? 0 : rec(handle).keyAddr;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (key_addr != 0)
            core_.load(key_addr + i * sizeof(Key));
        core_.executeOps(ops_per_element);
        core_.executeBranch(pcLoopBranch + handle % 7, i + 1 < n);
    }
    core_.executeOps(costs_.opsPerLoopIter);
}

} // namespace sc::backend
