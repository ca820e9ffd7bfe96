/**
 * @file
 * Unit and property tests for the stream set operations (S_INTER,
 * S_SUB, S_MERGE semantics) and the Fig. 6 SU cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "streams/set_ops.hh"
#include "streams/simd/kernel_table.hh"

using namespace sc;
using namespace sc::streams;

namespace {

std::vector<Key>
sortedRandom(Rng &rng, std::size_t n, Key universe)
{
    std::set<Key> s;
    while (s.size() < n)
        s.insert(static_cast<Key>(rng.below(universe)));
    return {s.begin(), s.end()};
}

} // namespace

TEST(SetOps, IntersectBasic)
{
    const std::vector<Key> a = {1, 3, 5, 7, 9};
    const std::vector<Key> b = {2, 3, 4, 7, 8};
    std::vector<Key> out;
    const auto res = intersect(a, b, noBound, &out);
    EXPECT_EQ(out, (std::vector<Key>{3, 7}));
    EXPECT_EQ(res.count, 2u);
}

TEST(SetOps, IntersectDisjoint)
{
    const std::vector<Key> a = {1, 2, 3};
    const std::vector<Key> b = {10, 20};
    const auto res = intersect(a, b);
    EXPECT_EQ(res.count, 0u);
}

TEST(SetOps, IntersectEmptyOperand)
{
    const std::vector<Key> a = {1, 2, 3};
    EXPECT_EQ(intersect(a, {}).count, 0u);
    EXPECT_EQ(intersect({}, a).count, 0u);
    EXPECT_EQ(intersect({}, {}).count, 0u);
}

TEST(SetOps, IntersectBoundTerminatesEarly)
{
    const std::vector<Key> a = {1, 3, 5, 7, 9};
    const std::vector<Key> b = {3, 5, 7, 9};
    std::vector<Key> out;
    const auto res = intersect(a, b, 6, &out);
    EXPECT_EQ(out, (std::vector<Key>{3, 5}));
    // Early termination: fewer elements consumed than the full walk.
    EXPECT_LT(res.aConsumed, a.size());
}

TEST(SetOps, IntersectBoundAtExactElement)
{
    const std::vector<Key> a = {1, 3, 5};
    const std::vector<Key> b = {1, 3, 5};
    std::vector<Key> out;
    intersect(a, b, 5, &out);
    // The bound is exclusive: 5 must not appear.
    EXPECT_EQ(out, (std::vector<Key>{1, 3}));
}

TEST(SetOps, PaperVinterExample)
{
    // §3.3: keys [(1,45),(3,21),(7,13)] and [(2,14),(5,36),(7,2)]
    // intersect at key 7; MAC gives 13 * 2 = 26.
    const std::vector<Key> ak = {1, 3, 7};
    const std::vector<Value> av = {45, 21, 13};
    const std::vector<Key> bk = {2, 5, 7};
    const std::vector<Value> bv = {14, 36, 2};
    SetOpResult work;
    const Value r =
        valueIntersect(ak, av, bk, bv, ValueOp::Mac, &work);
    EXPECT_DOUBLE_EQ(r, 26.0);
    EXPECT_EQ(work.count, 1u);
}

TEST(SetOps, PaperVmergeExample)
{
    // §3.3: [(1,4),(3,21)] and [(1,1),(5,36)], scales 2 and 3 ->
    // [(1,11),(3,42),(5,108)].
    const std::vector<Key> ak = {1, 3};
    const std::vector<Value> av = {4, 21};
    const std::vector<Key> bk = {1, 5};
    const std::vector<Value> bv = {1, 36};
    std::vector<Key> keys;
    std::vector<Value> vals;
    valueMerge(ak, av, bk, bv, 2.0, 3.0, keys, vals);
    EXPECT_EQ(keys, (std::vector<Key>{1, 3, 5}));
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_DOUBLE_EQ(vals[0], 11.0);
    EXPECT_DOUBLE_EQ(vals[1], 42.0);
    EXPECT_DOUBLE_EQ(vals[2], 108.0);
}

TEST(SetOps, SubtractBasic)
{
    const std::vector<Key> a = {1, 2, 3, 4, 5};
    const std::vector<Key> b = {2, 4, 6};
    std::vector<Key> out;
    subtract(a, b, noBound, &out);
    EXPECT_EQ(out, (std::vector<Key>{1, 3, 5}));
}

TEST(SetOps, SubtractBound)
{
    const std::vector<Key> a = {1, 2, 3, 4, 5};
    const std::vector<Key> b = {2};
    std::vector<Key> out;
    subtract(a, b, 4, &out);
    EXPECT_EQ(out, (std::vector<Key>{1, 3}));
}

TEST(SetOps, MergeBasicWithTail)
{
    const std::vector<Key> a = {1, 5};
    const std::vector<Key> b = {2, 5, 9, 12};
    std::vector<Key> out;
    const auto res = merge(a, b, &out);
    EXPECT_EQ(out, (std::vector<Key>{1, 2, 5, 9, 12}));
    EXPECT_EQ(res.count, 5u);
}

TEST(SetOps, ValueOpsMaxMin)
{
    const std::vector<Key> k = {1, 2, 3};
    const std::vector<Value> av = {2, 5, 1};
    const std::vector<Value> bv = {3, 1, 4};
    EXPECT_DOUBLE_EQ(valueIntersect(k, av, k, bv, ValueOp::MaxAcc),
                     6.0); // max(6, 5, 4)
    EXPECT_DOUBLE_EQ(valueIntersect(k, av, k, bv, ValueOp::MinAcc),
                     4.0); // min(6, 5, 4)
}

TEST(SetOps, StepVisitorSeesEveryStep)
{
    // Every step of the dual-pointer loop is a match, which moves
    // both pointers, or an advance of one, so the work summary
    // accounts for each step: steps = aConsumed + bConsumed - matches.
    const std::vector<Key> a = {1, 3, 5};
    const std::vector<Key> b = {2, 3, 6};
    const auto inter = intersect(a, b);
    EXPECT_EQ(inter.count, 1u); // 3
    EXPECT_EQ(inter.steps, 4u);
    EXPECT_EQ(inter.aConsumed + inter.bConsumed - inter.count,
              inter.steps);
    // Subtract emits on its advance-A steps, so its matches are the
    // A elements it consumed without emitting.
    const auto sub = subtract(a, b);
    EXPECT_EQ(sub.count, 2u); // 1, 5
    EXPECT_EQ(sub.steps, 4u);
    EXPECT_EQ(sub.aConsumed + sub.bConsumed - (sub.aConsumed - sub.count),
              sub.steps);
}

// ---------------- property tests ----------------

class SetOpsProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SetOpsProperty, MatchesStdAlgorithms)
{
    Rng rng(GetParam());
    const auto a = sortedRandom(rng, 20 + rng.below(200), 1000);
    const auto b = sortedRandom(rng, 20 + rng.below(200), 1000);

    std::vector<Key> expect;
    std::vector<Key> got;

    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));
    intersect(a, b, noBound, &got);
    EXPECT_EQ(got, expect);

    expect.clear();
    got.clear();
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expect));
    subtract(a, b, noBound, &got);
    EXPECT_EQ(got, expect);

    expect.clear();
    got.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(expect));
    merge(a, b, &got);
    EXPECT_EQ(got, expect);
}

TEST_P(SetOpsProperty, BoundEquivalentToFilter)
{
    Rng rng(GetParam() ^ 0xb0d);
    const auto a = sortedRandom(rng, 10 + rng.below(100), 500);
    const auto b = sortedRandom(rng, 10 + rng.below(100), 500);
    const Key bound = static_cast<Key>(rng.below(500));

    std::vector<Key> full, bounded;
    intersect(a, b, noBound, &full);
    intersect(a, b, bound, &bounded);
    std::vector<Key> filtered;
    for (Key k : full)
        if (k < bound)
            filtered.push_back(k);
    EXPECT_EQ(bounded, filtered);

    full.clear();
    bounded.clear();
    filtered.clear();
    subtract(a, b, noBound, &full);
    subtract(a, b, bound, &bounded);
    for (Key k : full)
        if (k < bound)
            filtered.push_back(k);
    EXPECT_EQ(bounded, filtered);
}

TEST_P(SetOpsProperty, SuCostBoundsAndMonotonicity)
{
    Rng rng(GetParam() ^ 0x5c057);
    const auto a = sortedRandom(rng, 10 + rng.below(300), 2000);
    const auto b = sortedRandom(rng, 10 + rng.below(300), 2000);

    for (auto kind : {SetOpKind::Intersect, SetOpKind::Subtract,
                      SetOpKind::Merge}) {
        const auto narrow = suCost(a, b, kind, noBound, 4);
        const auto wide = suCost(a, b, kind, noBound, 32);
        // Wider comparators can only help.
        EXPECT_LE(wide.cycles, narrow.cycles);
        // A width-1 window degenerates to the scalar walk: the cycle
        // count can never exceed the total element count.
        const auto scalar = suCost(a, b, kind, noBound, 1);
        EXPECT_LE(scalar.cycles, a.size() + b.size() + 2);
        // Consumed counts never exceed operand lengths.
        EXPECT_LE(wide.aConsumed, a.size());
        EXPECT_LE(wide.bConsumed, b.size());
    }
}

TEST_P(SetOpsProperty, SuCostBoundedNeverSlower)
{
    Rng rng(GetParam() ^ 0xfeed);
    const auto a = sortedRandom(rng, 10 + rng.below(300), 2000);
    const auto b = sortedRandom(rng, 10 + rng.below(300), 2000);
    const Key bound = static_cast<Key>(rng.below(2000));
    for (auto kind : {SetOpKind::Intersect, SetOpKind::Subtract}) {
        const auto bounded = suCost(a, b, kind, bound, 16);
        const auto full = suCost(a, b, kind, noBound, 16);
        EXPECT_LE(bounded.cycles, full.cycles)
            << setOpName(kind) << " bound " << bound;
    }
}

namespace {

/** Two-pointer reference for valueIntersect (no galloping). */
Value
valueIntersectReference(KeySpan ak, ValueSpan av, KeySpan bk,
                        ValueSpan bv, ValueOp op, SetOpResult *work,
                        std::vector<std::uint32_t> *pos_a,
                        std::vector<std::uint32_t> *pos_b)
{
    Value acc = 0.0;
    bool first = true;
    std::size_t i = 0, j = 0;
    SetOpResult res;
    while (i < ak.size() && j < bk.size()) {
        ++res.steps;
        if (ak[i] == bk[j]) {
            if (pos_a)
                pos_a->push_back(static_cast<std::uint32_t>(i));
            if (pos_b)
                pos_b->push_back(static_cast<std::uint32_t>(j));
            const Value product = av[i] * bv[j];
            switch (op) {
              case ValueOp::Mac:
                acc += product;
                break;
              case ValueOp::MaxAcc:
                acc = first ? product : std::max(acc, product);
                break;
              case ValueOp::MinAcc:
                acc = first ? product : std::min(acc, product);
                break;
            }
            first = false;
            ++res.count;
            ++i;
            ++j;
        } else if (ak[i] < bk[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    res.aConsumed = i;
    res.bConsumed = j;
    if (work)
        *work = res;
    return acc;
}

/** Windowed-skip reference for suCost (no galloping, linear tail). */
SuCost
suCostReference(KeySpan a, KeySpan b, SetOpKind kind, Key bound,
                unsigned width)
{
    Cycles cycles = 0;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Key ka = a[i], kb = b[j];
        if (kind != SetOpKind::Merge && (ka >= bound || kb >= bound))
            break;
        ++cycles;
        if (ka == kb) {
            ++i;
            ++j;
            continue;
        }
        if (ka < kb) {
            const std::size_t limit = std::min(a.size(), i + width);
            auto it = std::lower_bound(a.begin() + i,
                                       a.begin() + limit, kb);
            i = static_cast<std::size_t>(it - a.begin());
        } else {
            const std::size_t limit = std::min(b.size(), j + width);
            auto it = std::lower_bound(b.begin() + j,
                                       b.begin() + limit, ka);
            j = static_cast<std::size_t>(it - b.begin());
        }
    }
    if (kind == SetOpKind::Merge) {
        const std::size_t left = (a.size() - i) + (b.size() - j);
        cycles += (left + width - 1) / width;
        i = a.size();
        j = b.size();
    } else if (kind == SetOpKind::Subtract) {
        std::size_t left = 0;
        for (std::size_t k = i; k < a.size() && a[k] < bound; ++k)
            ++left;
        cycles += (left + width - 1) / width;
        i += left;
    }
    return SuCost{cycles, i, j};
}

std::vector<Value>
randomValues(Rng &rng, std::size_t n)
{
    std::vector<Value> v(n);
    for (auto &x : v)
        x = static_cast<Value>(rng.below(1000)) / 10.0 + 0.5;
    return v;
}

} // namespace

TEST_P(SetOpsProperty, GallopingValueIntersectMatchesReference)
{
    Rng rng(GetParam() ^ 0x9a110);
    // Skewed operands: the short side is >= 32x shorter, so the
    // galloping fast path engages. Also mix in a balanced pair where
    // it must not change anything.
    const struct
    {
        std::size_t na, nb;
    } shapes[] = {{5, 400}, {12, 3000}, {300, 9600}, {64, 64}};
    for (const auto &shape : shapes) {
        const auto ak = sortedRandom(rng, shape.na, 10'000);
        const auto bk = sortedRandom(rng, shape.nb, 10'000);
        const auto av = randomValues(rng, ak.size());
        const auto bv = randomValues(rng, bk.size());
        for (auto op :
             {ValueOp::Mac, ValueOp::MaxAcc, ValueOp::MinAcc}) {
            SetOpResult work, ref_work;
            std::vector<std::uint32_t> pa, pb, ref_pa, ref_pb;
            const Value got = valueIntersect(ak, av, bk, bv, op,
                                             &work, &pa, &pb);
            const Value want = valueIntersectReference(
                ak, av, bk, bv, op, &ref_work, &ref_pa, &ref_pb);
            EXPECT_EQ(got, want);
            EXPECT_EQ(work.count, ref_work.count);
            EXPECT_EQ(work.steps, ref_work.steps);
            EXPECT_EQ(work.aConsumed, ref_work.aConsumed);
            EXPECT_EQ(work.bConsumed, ref_work.bConsumed);
            EXPECT_EQ(pa, ref_pa);
            EXPECT_EQ(pb, ref_pb);
        }
    }
}

TEST_P(SetOpsProperty, GallopingSuCostMatchesReference)
{
    Rng rng(GetParam() ^ 0x5ca10);
    const struct
    {
        std::size_t na, nb;
    } shapes[] = {{4, 500}, {2000, 30}, {10, 2048}, {128, 96}};
    for (const auto &shape : shapes) {
        const auto a = sortedRandom(rng, shape.na, 20'000);
        const auto b = sortedRandom(rng, shape.nb, 20'000);
        const Key bounds[] = {noBound,
                              static_cast<Key>(rng.below(20'000)),
                              static_cast<Key>(rng.below(500))};
        for (auto kind : {SetOpKind::Intersect, SetOpKind::Subtract,
                          SetOpKind::Merge}) {
            for (Key bound : bounds) {
                for (unsigned width : {1u, 4u, 16u}) {
                    const auto got =
                        suCost(a, b, kind, bound, width);
                    const auto want =
                        suCostReference(a, b, kind, bound, width);
                    EXPECT_EQ(got.cycles, want.cycles)
                        << setOpName(kind) << " bound " << bound
                        << " width " << width;
                    EXPECT_EQ(got.aConsumed, want.aConsumed);
                    EXPECT_EQ(got.bConsumed, want.bConsumed);
                }
            }
        }
    }
}

TEST_P(SetOpsProperty, BoundedGallopAtExactBoundary)
{
    // R3 early termination ON the galloping fast paths: operands with
    // >= 32x skew (the simdGallopRatio threshold) and bounds placed
    // exactly at element keys, one past them, at the short side's last
    // key, and one past it — the positions where an off-by-one in
    // bound trimming vs. gallop termination would show. Checked for
    // both skew directions against the scalar reference, through every
    // dispatched kernel level and through suCost.
    Rng rng(GetParam() ^ 0xb0907);
    const auto small = sortedRandom(rng, 12, 50'000);
    const auto large = sortedRandom(rng, 12 * 40, 50'000);
    ASSERT_GE(large.size(), 32 * small.size());

    std::vector<Key> bounds = {noBound, 0};
    for (const Key k : small) {
        bounds.push_back(k);
        bounds.push_back(k + 1);
    }
    bounds.push_back(small.back());
    bounds.push_back(small.back() + 1);
    bounds.push_back(large[large.size() / 2]);
    bounds.push_back(large.back() + 1);

    const std::pair<KeySpan, KeySpan> orients[] = {{small, large},
                                                   {large, small}};
    for (const auto &[a, b] : orients) {
        for (const Key bound : bounds) {
            for (auto kind :
                 {SetOpKind::Intersect, SetOpKind::Subtract}) {
                std::vector<Key> ref_out;
                const SetOpResult ref =
                    kind == SetOpKind::Intersect
                        ? intersect(a, b, bound, &ref_out)
                        : subtract(a, b, bound, &ref_out);
                for (const KernelLevel level :
                     availableKernelLevels()) {
                    ScopedKernelOverride forced(level);
                    const std::string what =
                        std::string(setOpName(kind)) + " level=" +
                        kernelLevelName(level) + " bound=" +
                        std::to_string(bound) + " |a|=" +
                        std::to_string(a.size());
                    std::vector<Key> out;
                    const SetOpResult got =
                        runSetOp(kind, a, b, bound, &out);
                    EXPECT_EQ(out, ref_out) << what;
                    EXPECT_EQ(got.count, ref.count) << what;
                    EXPECT_EQ(got.steps, ref.steps) << what;
                    EXPECT_EQ(got.aConsumed, ref.aConsumed) << what;
                    EXPECT_EQ(got.bConsumed, ref.bConsumed) << what;
                    const SetOpResult cnt =
                        runSetOpCount(kind, a, b, bound);
                    EXPECT_EQ(cnt.count, ref.count) << what << " (.C)";
                    EXPECT_EQ(cnt.steps, ref.steps) << what << " (.C)";
                }
                // The SU cost model's galloping fast path must agree
                // with the windowed-skip reference at the same
                // boundary bounds.
                for (unsigned width : {1u, 16u}) {
                    const auto got = suCost(a, b, kind, bound, width);
                    const auto want =
                        suCostReference(a, b, kind, bound, width);
                    EXPECT_EQ(got.cycles, want.cycles)
                        << setOpName(kind) << " bound " << bound
                        << " width " << width;
                    EXPECT_EQ(got.aConsumed, want.aConsumed);
                    EXPECT_EQ(got.bConsumed, want.bConsumed);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetOpsProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));
