#include "backend/cpu_backend.hh"

#include "common/logging.hh"

namespace sc::backend {

using sim::CycleClass;
using streams::SetOpKind;

namespace {

/** Synthetic branch pc per static branch site. */
constexpr std::uint64_t pcMatchBranch = 0x40;
constexpr std::uint64_t pcAdvanceBranch = 0x44;
constexpr std::uint64_t pcLoopBranch = 0x48;

/** The ordinary path of a merge-loop load: charge it through the core
 *  model and return the cursor of the L1 line it left behind. */
sim::Cache::Cursor
lineLoad(sim::CoreModel &core, Addr addr)
{
    core.load(addr, CycleClass::Intersection);
    return core.mem().l1().cursorAt(addr);
}

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

    switch (kind) {
      case SetOpKind::Intersect:
        producing ? mergeWalk<SetOpKind::Intersect, true>(
                        ra, rb, ak, bk, bound, out_addr)
                  : mergeWalk<SetOpKind::Intersect, false>(
                        ra, rb, ak, bk, bound, out_addr);
        break;
      case SetOpKind::Subtract:
        producing ? mergeWalk<SetOpKind::Subtract, true>(
                        ra, rb, ak, bk, bound, out_addr)
                  : mergeWalk<SetOpKind::Subtract, false>(
                        ra, rb, ak, bk, bound, out_addr);
        break;
      case SetOpKind::Merge:
        producing ? mergeWalk<SetOpKind::Merge, true>(
                        ra, rb, ak, bk, bound, out_addr)
                  : mergeWalk<SetOpKind::Merge, false>(
                        ra, rb, ak, bk, bound, out_addr);
        break;
    }
    // Loop exit branch (not taken).
    core_.executeBranch(pcLoopBranch, false, cls);
}

/**
 * The Fig. 4(a) loop, one step per iteration:
 *
 *     if (a[i] == b[j]) { emit; ++i; ++j; }   // match branch
 *     else if (a[i] < b[j]) { ++i; }          // advance branch
 *     else { ++j; }
 *
 * charged exactly as the core model's calls would charge it, in the
 * same order: per step, the step's ALU ops and the match branch;
 * unless it matched, the advance branch; a load for each cursor that
 * moved and is still in range; for an emitted element its ALU ops
 * and, when producing into a buffer, a store-address load; and the
 * loop's bounds-check op. Subtract takes the advance-A side once B
 * is exhausted, Merge's tail is not walked (as in streams::merge),
 * and Intersect and Subtract stop at the bound.
 *
 * The host must not branch on what the modeled CPU mispredicts, so
 * each step's outcome is three bits, and the advance branch and the
 * cursor loads are predicated on them. The predictor's state, the L1
 * clock and hit count and the cycle sums stay in locals (registers).
 * Each cursor (A, B and the output) remembers the L1 slot of its
 * line, so a load on that line is an L1 hit with no search. A new
 * line takes the ordinary CoreModel::load path, with the L1 locals
 * written back around it; it may evict another cursor's line, which
 * then forgets its slot. That path touches neither the predictor nor
 * the sums, which are written back once, at the end.
 */
template <SetOpKind Kind, bool Producing>
void
CpuBackend::mergeWalk(const StreamRec &ra, const StreamRec &rb,
                      streams::KeySpan ak, streams::KeySpan bk,
                      Key bound, Addr out_addr)
{
    const sim::CoreParams &params = core_.params();
    const auto ops = [&params](std::uint64_t n) -> Cycles {
        return (n + params.issueWidth - 1) / params.issueWidth;
    };
    // ops(1) is 1 at any issue width.
    const Cycles step_ops = ops(costs_.opsPerStep) + 1; // + match branch
    const Cycles output_ops = ops(costs_.opsPerOutput);
    const bool out_loads = Producing && out_addr != 0;
    const Addr a_base = ra.keyAddr, b_base = rb.keyAddr;
    const Key *const a = ak.data(), *const b = bk.data();
    const std::size_t na = ak.size(), nb = bk.size();

    sim::GsharePredictor &predictor = core_.predictor();
    sim::Cache &l1 = core_.mem().l1();
    sim::GsharePredictor::Regs bp = predictor.regs();
    const std::uint64_t mispredicts_before = bp.mispredicts;
    sim::Cache::Regs l1r = l1.regs();
    Cycles compute = 0;
    sim::Cache::Cursor cur_a, cur_b, cur_out;

    // Nothing out of line may point at the locals, or the compiler
    // would have to keep them in memory.
    const auto slowLoad = [&](Addr addr, sim::Cache::Cursor &cursor) {
        l1.store(l1r);
        cursor = lineLoad(core_, addr);
        l1r = l1.regs();
        for (sim::Cache::Cursor *c : {&cur_a, &cur_b, &cur_out})
            if (!l1r.holds(*c))
                c->tag = 0;
    };
    const auto load = [&](Addr addr, sim::Cache::Cursor &cursor,
                          bool executed) {
        if (executed & (l1r.tagOf(addr) != cursor.tag)) [[unlikely]] {
            slowLoad(addr, cursor);
            return;
        }
        l1r.hit(cursor, executed);
        compute += executed;
    };

    if (na != 0)
        slowLoad(a_base, cur_a);
    if (nb != 0)
        slowLoad(b_base, cur_b);

    std::size_t ia = 0, ib = 0;
    std::uint64_t out_index = 0;
    while (ia < na) {
        const Key ka = a[ia];
        bool lt, eq;
        if constexpr (Kind == SetOpKind::Subtract) {
            if (ka >= bound)
                break;
            const bool b_left = ib < nb;
            const Key kb = b_left ? b[ib] : 0;
            lt = !b_left | (ka < kb);
            eq = b_left & (ka == kb);
        } else {
            if (ib == nb)
                break;
            const Key kb = b[ib];
            if (Kind == SetOpKind::Intersect &&
                (ka >= bound || kb >= bound))
                break;
            lt = ka < kb;
            eq = ka == kb;
        }
        const bool gt = !lt & !eq;

        compute += step_ops + !eq;
        bp.predict(pcMatchBranch, eq);
        bp.predict(pcAdvanceBranch, lt, !eq);

        ia += !gt;
        load(a_base + ia * sizeof(Key), cur_a, !gt & (ia < na));
        ib += !lt;
        load(b_base + ib * sizeof(Key), cur_b, !lt & (ib < nb));

        const bool emits = Kind == SetOpKind::Intersect   ? eq
                           : Kind == SetOpKind::Subtract ? lt
                                                         : true;
        compute += output_ops * emits + 1; // + the bounds-check op
        if (out_loads)
            load(out_addr + out_index * sizeof(Key), cur_out, emits);
        out_index += emits;
    }
    predictor.store(bp);
    l1.store(l1r);
    core_.addCycles(CycleClass::Intersection, compute);
    core_.addCycles(CycleClass::Mispredict,
                    params.mispredictPenalty *
                        (bp.mispredicts - mispredicts_before));
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
