/**
 * @file
 * CpuBackend's fused merge loop against the loop it replaced: the
 * scalar reference walks with a per-step visitor, each step charged
 * through the CoreModel one call at a time. On seeded operands, every
 * set-op kind, producing and counting, with and without a bound, on
 * both sides of the 32x gallop threshold and with cursors that evict
 * each other's L1 lines mid-walk, the two must agree on cycles, the
 * breakdown, gshare lookups and mispredicts, and every cache level's
 * hits and misses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "backend/cpu_backend.hh"
#include "common/rng.hh"

using namespace sc;
using streams::KeySpan;
using streams::SetOpKind;

namespace {

// ---------------- the oracle: the visitor loop ----------------

enum class StepOutcome : std::uint8_t { Match, AdvanceA, AdvanceB };

template <typename Visitor>
void
visitIntersect(KeySpan a, KeySpan b, Key bound, Visitor &&vis)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Key ka = a[i], kb = b[j];
        if (ka >= bound || kb >= bound)
            break;
        if (ka == kb) {
            vis(StepOutcome::Match);
            ++i;
            ++j;
        } else if (ka < kb) {
            vis(StepOutcome::AdvanceA);
            ++i;
        } else {
            vis(StepOutcome::AdvanceB);
            ++j;
        }
    }
}

template <typename Visitor>
void
visitSubtract(KeySpan a, KeySpan b, Key bound, Visitor &&vis)
{
    std::size_t i = 0, j = 0;
    while (i < a.size()) {
        const Key ka = a[i];
        if (ka >= bound)
            break;
        if (j >= b.size() || ka < b[j]) {
            vis(StepOutcome::AdvanceA);
            ++i;
        } else if (ka == b[j]) {
            vis(StepOutcome::Match);
            ++i;
            ++j;
        } else {
            vis(StepOutcome::AdvanceB);
            ++j;
        }
    }
}

template <typename Visitor>
void
visitMerge(KeySpan a, KeySpan b, Visitor &&vis)
{
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
            vis(StepOutcome::Match);
            ++i;
            ++j;
        } else if (a[i] < b[j]) {
            vis(StepOutcome::AdvanceA);
            ++i;
        } else {
            vis(StepOutcome::AdvanceB);
            ++j;
        }
    }
}

/** The CPU baseline's merge loop as it was before it was fused:
 *  every step charged through the core model's calls. */
class VisitorCpu
{
  public:
    VisitorCpu(const sim::MemParams &mem) : core_(sim::CoreParams{}, mem)
    {
    }

    void streamLoad() { core_.executeOps(costs_.opsPerStreamSetup); }

    void
    mergeLoop(SetOpKind kind, Addr a_addr, Addr b_addr, KeySpan ak,
              KeySpan bk, Key bound, Addr out_addr, bool producing)
    {
        using sim::CycleClass;
        const CycleClass cls = CycleClass::Intersection;
        std::uint64_t out_index = 0;

        if (kind == SetOpKind::Intersect && !producing && !ak.empty() &&
            !bk.empty()) {
            const std::size_t shorter = std::min(ak.size(), bk.size());
            const std::size_t longer = std::max(ak.size(), bk.size());
            if (longer >= 32 * shorter) {
                const Addr short_addr =
                    ak.size() <= bk.size() ? a_addr : b_addr;
                unsigned search_steps = 1;
                while ((1ull << search_steps) < longer)
                    ++search_steps;
                for (std::size_t i = 0; i < shorter; ++i) {
                    core_.load(short_addr + i * sizeof(Key), cls);
                    core_.executeOps(2 * search_steps, cls);
                    core_.loadOverlapped(
                        (ak.size() <= bk.size() ? b_addr : a_addr) +
                            (i * 2654435761u) % (longer * sizeof(Key)),
                        2, cls);
                    core_.executeBranch(pcMatch, i % 3 == 0, cls);
                }
                return;
            }
        }

        if (!ak.empty())
            core_.load(a_addr, cls);
        if (!bk.empty())
            core_.load(b_addr, cls);

        std::size_t ia = 0, ib = 0;
        auto on_step = [&](StepOutcome outcome) {
            core_.executeOps(costs_.opsPerStep, cls);
            const bool match = outcome == StepOutcome::Match;
            core_.executeBranch(pcMatch, match, cls);
            if (!match)
                core_.executeBranch(
                    pcAdvance, outcome == StepOutcome::AdvanceA, cls);
            if (match || outcome == StepOutcome::AdvanceA) {
                ++ia;
                if (ia < ak.size())
                    core_.load(a_addr + ia * sizeof(Key), cls);
            }
            if (match || outcome == StepOutcome::AdvanceB) {
                ++ib;
                if (ib < bk.size())
                    core_.load(b_addr + ib * sizeof(Key), cls);
            }
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
            core_.executeOps(1, cls);
        };
        switch (kind) {
          case SetOpKind::Intersect:
            visitIntersect(ak, bk, bound, on_step);
            break;
          case SetOpKind::Subtract:
            visitSubtract(ak, bk, bound, on_step);
            break;
          case SetOpKind::Merge:
            visitMerge(ak, bk, on_step);
            break;
        }
        core_.executeBranch(pcLoop, false, cls);
    }

    sim::CoreModel &core() { return core_; }

  private:
    static constexpr std::uint64_t pcMatch = 0x40;
    static constexpr std::uint64_t pcAdvance = 0x44;
    static constexpr std::uint64_t pcLoop = 0x48;

    sim::CoreModel core_;
    backend::CpuCostParams costs_;
};

// ---------------- operands and comparison ----------------

/** n distinct sorted keys below `range`. */
std::vector<Key>
sortedKeys(Rng &rng, std::size_t n, Key range)
{
    std::set<Key> keys;
    while (keys.size() < n)
        keys.insert(static_cast<Key>(rng.below(range)));
    return {keys.begin(), keys.end()};
}

void
expectSameModel(sim::CoreModel &fused, sim::CoreModel &oracle,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(fused.cycles(), oracle.cycles());
    for (unsigned c = 0;
         c < static_cast<unsigned>(sim::CycleClass::NumClasses); ++c) {
        const auto cls = static_cast<sim::CycleClass>(c);
        EXPECT_EQ(fused.breakdown()[cls], oracle.breakdown()[cls])
            << sim::cycleClassName(cls);
    }
    EXPECT_EQ(fused.predictor().lookups(), oracle.predictor().lookups());
    EXPECT_EQ(fused.predictor().mispredicts(),
              oracle.predictor().mispredicts());
    sim::MemHierarchy &fm = fused.mem();
    sim::MemHierarchy &om = oracle.mem();
    EXPECT_EQ(fm.l1().hits(), om.l1().hits());
    EXPECT_EQ(fm.l1().misses(), om.l1().misses());
    EXPECT_EQ(fm.l2().hits(), om.l2().hits());
    EXPECT_EQ(fm.l2().misses(), om.l2().misses());
    EXPECT_EQ(fm.l3().hits(), om.l3().hits());
    EXPECT_EQ(fm.l3().misses(), om.l3().misses());
    EXPECT_EQ(fm.memAccesses(), om.memAccesses());
}

/** Operand length pairs: empty sides, even lengths, ratios just under
 *  and at the 32x gallop threshold on either side, and long walks. */
const std::pair<std::size_t, std::size_t> lengthPairs[] = {
    {0, 9},   {9, 0},    {1, 1},    {40, 55},   {300, 260},
    {10, 310}, {310, 10}, {10, 320}, {320, 10}, {3, 400},
    {700, 900},
};

/**
 * Run every kind, producing and counting, unbounded and at a
 * mid-range bound, over each length pair, on one fused backend and
 * one oracle in lockstep: the models carry their caches and
 * predictor across calls, so a divergence anywhere shows at the end
 * of the sequence too.
 */
void
checkSequence(std::uint64_t seed, const sim::MemParams &mem, Addr a_addr,
              Addr b_addr, Addr out_addr)
{
    Rng rng(seed);
    backend::CpuBackend fused(sim::CoreParams{}, mem);
    VisitorCpu oracle(mem);
    fused.begin();
    for (const auto &[na, nb] : lengthPairs) {
        const Key range = static_cast<Key>(2 * std::max(na, nb) + 8);
        const auto a = sortedKeys(rng, na, range);
        const auto b = sortedKeys(rng, nb, range);
        for (const Key bound : {noBound, static_cast<Key>(range / 2)}) {
            for (unsigned k = 0; k < streams::numSetOpKinds; ++k) {
                const auto kind = static_cast<SetOpKind>(k);
                for (const bool producing : {false, true}) {
                    const auto ha = fused.streamLoad(
                        a_addr, static_cast<std::uint32_t>(na), 0, a);
                    const auto hb = fused.streamLoad(
                        b_addr, static_cast<std::uint32_t>(nb), 0, b);
                    oracle.streamLoad();
                    oracle.streamLoad();
                    if (producing) {
                        std::vector<Key> out;
                        streams::runSetOp(kind, a, b, bound, &out);
                        fused.setOp(kind, ha, hb, a, b, bound, out,
                                    out_addr);
                    } else {
                        fused.setOpCount(kind, ha, hb, a, b, bound, 0);
                    }
                    oracle.mergeLoop(kind, a_addr, b_addr, a, b, bound,
                                     out_addr, producing);
                    ASSERT_EQ(fused.core().cycles(),
                              oracle.core().cycles())
                        << streams::setOpName(kind)
                        << (producing ? " producing" : " counting")
                        << " na=" << na << " nb=" << nb
                        << " bound=" << bound;
                }
            }
        }
    }
    expectSameModel(fused.core(), oracle.core(), "end of sequence");
}

const std::uint64_t seeds[] = {1, 2, 3, 0xfeed};

} // namespace

TEST(CpuMergeLoop, MatchesVisitorLoopOnDefaultHierarchy)
{
    // Unaligned bases a line apart in the set index, so cursors cross
    // lines mid-block and share sets at equal offsets.
    for (const std::uint64_t seed : seeds)
        checkSequence(seed, sim::MemParams{}, 0x100004, 0x201008,
                      0x30200c);
}

TEST(CpuMergeLoop, MatchesVisitorLoopWhenCursorsEvictEachOther)
{
    // One 2-way L1 set: the A, B and output cursors keep evicting each
    // other's remembered lines mid-walk.
    sim::MemParams mem;
    mem.l1 = {"l1d", 2 * 64, 2, 64};
    for (const std::uint64_t seed : seeds)
        checkSequence(seed, mem, 0x100000, 0x200000, 0x300000);
}

TEST(CpuMergeLoop, MatchesVisitorLoopOnNonPowerOfTwoSets)
{
    // 12 sets of 2 ways: the set index is a modulo, and bases 12 lines
    // apart collide.
    sim::MemParams mem;
    mem.l1 = {"l1d", 12 * 2 * 64, 2, 64};
    for (const std::uint64_t seed : seeds)
        checkSequence(seed, mem, 0x10000, 0x10000 + 12 * 64 * 5,
                      0x10000 + 12 * 64 * 9);
}
