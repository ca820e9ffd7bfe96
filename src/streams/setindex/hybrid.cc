#include "streams/setindex/hybrid.hh"

#include <bit>

#include "streams/simd/simd_util.hh"

namespace sc::streams::setindex {

namespace {

using BitmapView = StreamSetIndex::BitmapView;

/** One operand resolved against the registry; `bm` is valid only when
 *  the list has a bitmap. */
struct Operand
{
    ResolvedSpan rs;
    BitmapView bm;
};

Operand
resolveOperand(KeySpan s)
{
    Operand op;
    if (resolveSpan(s, op.rs))
        op.bm = op.rs.index->bitmap(op.rs.vertex);
    return op;
}

/**
 * Gallop-probe intersection count: walk iter[0..li), test membership
 * in the probed slice probed[0..lp) with one perm[] + word load each.
 * The probed bitmap covers ALL of N(v); because `probed` is a
 * contiguous slice of that sorted duplicate-free list, membership in
 * the slice is exactly (bitmap hit && probed.front() <= k <=
 * probed[lp-1]), so the range clamp doubles as the sub-span
 * restriction. Keys below the probed range are skipped by one gallop,
 * keys above it end the walk.
 */
std::uint64_t
probeIntersect(KeySpan iter, std::size_t li, KeySpan probed,
               std::size_t lp, const StreamSetIndex &idx,
               const BitmapView &bm, std::vector<Key> *out)
{
    if (li == 0 || lp == 0)
        return 0;
    const Key lo = probed.front(), hi = probed[lp - 1];
    std::size_t i = iter.front() < lo
                        ? simd::gallopFrom(iter.first(li), 0, lo)
                        : 0;
    std::uint64_t count = 0;
    for (; i < li; ++i) {
        const Key k = iter[i];
        if (k > hi)
            break;
        if (idx.contains(bm, k)) {
            if (out)
                out->push_back(k);
            ++count;
        }
    }
    return count;
}

/** Probe-side subtract count: emit each a[0..la) key that is NOT in
 *  the probed slice b (b must be non-empty; the bound only trims A —
 *  B membership is checked against the whole slice, matching the
 *  scalar loop). */
std::uint64_t
probeSubtract(KeySpan a, std::size_t la, KeySpan b,
              const StreamSetIndex &idx, const BitmapView &bm,
              std::vector<Key> *out)
{
    const Key lo = b.front(), hi = b.back();
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < la; ++i) {
        const Key k = a[i];
        if (!(k >= lo && k <= hi && idx.contains(bm, k))) {
            if (out)
                out->push_back(k);
            ++count;
        }
    }
    return count;
}

// Bitmap x bitmap word kernels (full lists of the same index only, so
// both chunks live in one rank space). Plain uint64 loops: 64 keys
// per AND/ANDNOT/OR + popcount, and -O2 auto-vectorizes them.

/** |X & Y| over the overlapping word range. */
std::uint64_t
wordAndCount(const BitmapView &x, const BitmapView &y)
{
    const std::uint32_t lo = std::max(x.firstWord, y.firstWord);
    const std::uint32_t hi = std::min(x.firstWord + x.numWords,
                                      y.firstWord + y.numWords);
    std::uint64_t count = 0;
    for (std::uint32_t w = lo; w < hi; ++w)
        count += static_cast<unsigned>(
            std::popcount(x.words[w - x.firstWord] &
                          y.words[w - y.firstWord]));
    return count;
}

/** |X & ~Y| over X's word range (Y contributes zeros outside its
 *  own). */
std::uint64_t
wordAndNotCount(const BitmapView &x, const BitmapView &y)
{
    std::uint64_t count = 0;
    for (std::uint32_t w = x.firstWord; w < x.firstWord + x.numWords;
         ++w) {
        const std::uint64_t xv = x.words[w - x.firstWord];
        const std::uint64_t yv =
            (w >= y.firstWord && w - y.firstWord < y.numWords)
                ? y.words[w - y.firstWord]
                : 0;
        count += static_cast<unsigned>(std::popcount(xv & ~yv));
    }
    return count;
}

/** |X | Y| over the union word range. */
std::uint64_t
wordOrCount(const BitmapView &x, const BitmapView &y)
{
    const std::uint32_t lo = std::min(x.firstWord, y.firstWord);
    const std::uint32_t hi = std::max(x.firstWord + x.numWords,
                                      y.firstWord + y.numWords);
    std::uint64_t count = 0;
    for (std::uint32_t w = lo; w < hi; ++w) {
        const std::uint64_t xv =
            (w >= x.firstWord && w - x.firstWord < x.numWords)
                ? x.words[w - x.firstWord]
                : 0;
        const std::uint64_t yv =
            (w >= y.firstWord && w - y.firstWord < y.numWords)
                ? y.words[w - y.firstWord]
                : 0;
        count += static_cast<unsigned>(std::popcount(xv | yv));
    }
    return count;
}

/** Auto-policy probe threshold: a word probe costs ~3x an array
 *  kernel's per-element work, so probing the bitmap side only pays
 *  once it is at least this many times longer than the iterated side
 *  — at lower skew the array kernels' O(la+lb) SIMD compares are
 *  cheaper; far above the simd gallop ratio (32x) the paths converge
 *  again, but the probe keeps a constant-factor edge. Set by the
 *  kernel_microbench density x skew sweep (BENCH_setindex.json):
 *  skew-1 cells lose, skew >= 8 cells win ~2x. */
constexpr std::size_t autoProbeSkew = 4;

/**
 * Which side to probe: 0 = neither, 1 = probe A's bitmap (iterate b),
 * 2 = probe B's bitmap (iterate a). Probe work is O(iterated side),
 * so Auto only probes when the probed (bitmap) side is at least
 * autoProbeSkew times the iterated side — near-balanced operands stay
 * on the array kernels, which process both sides at SIMD rates.
 */
int
chooseProbeSide(const Operand &oa, const Operand &ob, std::size_t la,
                std::size_t lb)
{
    if (ob.bm.valid() && lb >= autoProbeSkew * la)
        return 2;
    if (oa.bm.valid() && la >= autoProbeSkew * lb)
        return 1;
    return 0;
}

/** Word-kernel gate for Auto: the chunks must pack at least two list
 *  keys per 64-bit word (rank density >= 1/32). At the bitmap floor
 *  (one key per word) the word loop touches as many words as the
 *  array kernel touches keys and loses to SIMD compares — the
 *  sweep's skew-1 density-1/64 cell. */
bool
wordKernelPays(const Operand &oa, const Operand &ob, std::size_t la,
               std::size_t lb)
{
    return 2ull * oa.bm.numWords <= la && 2ull * ob.bm.numWords <= lb;
}

} // namespace

bool
tryRunIndexed(SetOpKind kind, KeySpan a, KeySpan b, Key bound,
              std::vector<Key> *out, SetOpResult &res)
{
    const Operand oa = resolveOperand(a);
    const Operand ob = resolveOperand(b);
    if (!oa.bm.valid() && !ob.bm.valid())
        return false;
    const bool same_index = oa.bm.valid() && ob.bm.valid() &&
                            oa.rs.index == ob.rs.index;

    switch (kind) {
      case SetOpKind::Intersect: {
        const std::size_t la = simd::trimToBound(a, bound);
        const std::size_t lb = simd::trimToBound(b, bound);
        // bitmap x bitmap: counting over full untrimmed lists (a
        // truncating bound is an original-ID prefix, which the
        // order-destroying relabel cannot express as a word mask).
        if (!out && same_index && oa.rs.fullList && ob.rs.fullList &&
            la == a.size() && lb == b.size() &&
            wordKernelPays(oa, ob, la, lb)) {
            res = simd::finishIntersect(a, la, b, lb,
                                        wordAndCount(oa.bm, ob.bm));
            return true;
        }
        // array x bitmap gallop-probe.
        const int side = chooseProbeSide(oa, ob, la, lb);
        std::uint64_t count;
        if (side == 2)
            count = probeIntersect(a, la, b, lb, *ob.rs.index, ob.bm,
                                   out);
        else if (side == 1)
            count = probeIntersect(b, lb, a, la, *oa.rs.index, oa.bm,
                                   out);
        else
            return false;
        res = simd::finishIntersect(a, la, b, lb, count);
        return true;
      }

      case SetOpKind::Subtract: {
        if (!ob.bm.valid())
            return false; // must iterate A; only B's bitmap helps
        const std::size_t la = simd::trimToBound(a, bound);
        if (!out && same_index && oa.rs.fullList && ob.rs.fullList &&
            la == a.size() && wordKernelPays(oa, ob, a.size(), b.size())) {
            res = simd::finishSubtract(a, la, b,
                                       wordAndNotCount(oa.bm, ob.bm));
            return true;
        }
        // Probing costs O(la) regardless of |b|; it pays only when b
        // (the probed side) dwarfs a — same threshold as intersect.
        if (b.size() < autoProbeSkew * a.size())
            return false;
        const std::uint64_t count =
            probeSubtract(a, la, b, *ob.rs.index, ob.bm, out);
        res = simd::finishSubtract(a, la, b, count);
        return true;
      }

      case SetOpKind::Merge: {
        // Materializing merge emits every input element — store-bound,
        // no format can skip work. Counting collapses to closed forms
        // from one matches/union count.
        if (out)
            return false;
        if (same_index && oa.rs.fullList && ob.rs.fullList &&
            wordKernelPays(oa, ob, a.size(), b.size())) {
            const std::uint64_t united = wordOrCount(oa.bm, ob.bm);
            res = simd::finishMerge(a, b,
                                    a.size() + b.size() - united);
            return true;
        }
        const int side = chooseProbeSide(oa, ob, a.size(), b.size());
        std::uint64_t matches;
        if (side == 2)
            matches = probeIntersect(a, a.size(), b, b.size(),
                                     *ob.rs.index, ob.bm, nullptr);
        else if (side == 1)
            matches = probeIntersect(b, b.size(), a, a.size(),
                                     *oa.rs.index, oa.bm, nullptr);
        else
            return false;
        res = simd::finishMerge(a, b, matches);
        return true;
      }
    }
    return false;
}

} // namespace sc::streams::setindex
