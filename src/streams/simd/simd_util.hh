/**
 * @file
 * Shared machinery for the AVX2 set-operation kernels and the hybrid
 * set-index kernels: bound trimming, closed-form reconstruction of
 * the scalar reference loop's SetOpResult, skew (galloping) fast
 * paths, and the compacted-store emit table. Everything here is
 * portable scalar code; the intrinsics live in avx2_kernels.cc.
 *
 * Why closed forms: a block kernel does not walk the scalar loop, so
 * it cannot count steps or final pointer positions directly — and a
 * blocked walk ends at different positions than the scalar walk. The
 * reference endpoints are, however, fully determined by the operand
 * spans (strictly sorted, duplicate-free keys):
 *
 *  - Trimming. The scalar loop never consumes an element >= the
 *    bound, so intersect(a, b, bound) behaves exactly like
 *    intersect(a', b', noBound) with x' = x[0 .. lower_bound(x,
 *    bound)); for subtract only A is trimmed (B may advance past the
 *    bound chasing A's head — but A's head is < bound, so those B
 *    advances are reproduced by the untrimmed closed form below).
 *
 *  - Intersect endpoints on trimmed spans (la, lb > 0): the loop
 *    stops when one side exhausts. If a[la-1] == b[lb-1] both
 *    exhaust: (la, lb). If a[la-1] < b[lb-1], A exhausts first (B's
 *    last element can only be consumed by a match or by an A head
 *    greater than it, neither exists), and B stops at the first
 *    element > a[la-1]: j = lower_bound(b, a[la-1]) plus one if that
 *    element matched. Symmetric otherwise.
 *
 *  - Step counts. Each step consumes exactly one element (AdvanceA/
 *    AdvanceB) or two (Match), so intersect/merge-main-loop steps =
 *    i + j - matches. Subtract emits on AdvanceA without consuming
 *    B, consumes both on Match and one B on AdvanceB: steps = count
 *    + j_final, with i_final = la always and j_final = #b <= a[la-1]
 *    counting the matched partner.
 *
 * tests/kernel_table_test.cc checks these identities field-by-field
 * against the scalar reference functions on randomized streams.
 */

#ifndef SPARSECORE_STREAMS_SIMD_SIMD_UTIL_HH
#define SPARSECORE_STREAMS_SIMD_SIMD_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "streams/set_ops.hh"

namespace sc::streams::simd {

/** Skew ratio above which galloping beats block comparison (same
 *  threshold the exact-cost fast paths in set_ops.cc use). */
constexpr std::size_t simdGallopRatio = 32;

inline bool
skewed(std::size_t longer, std::size_t shorter)
{
    return longer >= simdGallopRatio * shorter;
}

/** Number of elements of s below the (exclusive) bound. */
inline std::size_t
trimToBound(KeySpan s, Key bound)
{
    if (s.empty() || s.back() < bound)
        return s.size();
    return static_cast<std::size_t>(
        std::lower_bound(s.begin(), s.end(), bound) - s.begin());
}

/** First index >= from with s[index] >= target (exponential probe +
 *  binary search). */
inline std::size_t
gallopFrom(KeySpan s, std::size_t from, Key target)
{
    std::size_t step = 1;
    std::size_t lo = from;
    while (lo + step < s.size() && s[lo + step] < target) {
        lo += step;
        step <<= 1;
    }
    const std::size_t hi = std::min(s.size(), lo + step + 1);
    auto it = std::lower_bound(s.begin() + lo, s.begin() + hi, target);
    return static_cast<std::size_t>(it - s.begin());
}

/** Final (i, j) of the scalar two-pointer loop over trimmed spans. */
struct LoopEnd
{
    std::size_t i = 0, j = 0;
};

inline LoopEnd
intersectLoopEnd(KeySpan a, std::size_t la, KeySpan b, std::size_t lb)
{
    if (la == 0 || lb == 0)
        return {0, 0};
    const Key alast = a[la - 1], blast = b[lb - 1];
    if (alast == blast)
        return {la, lb};
    if (alast < blast) {
        std::size_t j = static_cast<std::size_t>(
            std::lower_bound(b.begin(), b.begin() + lb, alast) -
            b.begin());
        if (j < lb && b[j] == alast)
            ++j;
        return {la, j};
    }
    std::size_t i = static_cast<std::size_t>(
        std::lower_bound(a.begin(), a.begin() + la, blast) - a.begin());
    if (i < la && a[i] == blast)
        ++i;
    return {i, lb};
}

/** Final j of the scalar subtract loop (i always ends at la). */
inline std::size_t
subtractLoopEndB(KeySpan a, std::size_t la, KeySpan b)
{
    if (la == 0)
        return 0;
    const Key alast = a[la - 1];
    std::size_t j = static_cast<std::size_t>(
        std::lower_bound(b.begin(), b.end(), alast) - b.begin());
    if (j < b.size() && b[j] == alast)
        ++j;
    return j;
}

/** Reference-identical SetOpResult from a kernel's match count. */
inline SetOpResult
finishIntersect(KeySpan a, std::size_t la, KeySpan b, std::size_t lb,
                std::uint64_t count)
{
    const LoopEnd e = intersectLoopEnd(a, la, b, lb);
    SetOpResult res;
    res.count = count;
    res.steps = e.i + e.j - count;
    res.aConsumed = e.i;
    res.bConsumed = e.j;
    return res;
}

inline SetOpResult
finishSubtract(KeySpan a, std::size_t la, KeySpan b, std::uint64_t count)
{
    SetOpResult res;
    res.count = count;
    res.aConsumed = la;
    res.bConsumed = subtractLoopEndB(a, la, b);
    res.steps = count + res.bConsumed;
    return res;
}

inline SetOpResult
finishMerge(KeySpan a, KeySpan b, std::uint64_t matches)
{
    const LoopEnd e = intersectLoopEnd(a, a.size(), b, b.size());
    SetOpResult res;
    res.count = a.size() + b.size() - matches;
    res.steps = e.i + e.j - matches; // tail copies take no loop steps
    res.aConsumed = a.size();
    res.bConsumed = b.size();
    return res;
}

/**
 * Galloping intersection for heavily skewed trimmed operands: walk
 * the short side, gallop the long side. Output-identical to the
 * reference; O(short * log long) instead of O(long).
 */
inline SetOpResult
skewIntersect(KeySpan a, std::size_t la, KeySpan b, std::size_t lb,
              std::vector<Key> *out)
{
    const bool aLong = la >= lb;
    const KeySpan longSide = aLong ? a.first(la) : b.first(lb);
    const KeySpan shortSide = aLong ? b.first(lb) : a.first(la);
    std::uint64_t count = 0;
    std::size_t pos = 0;
    for (const Key k : shortSide) {
        pos = gallopFrom(longSide, pos, k);
        if (pos >= longSide.size())
            break;
        if (longSide[pos] == k) {
            if (out)
                out->push_back(k);
            ++count;
            ++pos;
        }
    }
    return finishIntersect(a, la, b, lb, count);
}

/** Subtract fast path when B dwarfs the trimmed A: membership-test
 *  each A element by galloping through B. */
inline SetOpResult
skewSubtractLongB(KeySpan a, std::size_t la, KeySpan b,
                  std::vector<Key> *out)
{
    const std::size_t base = out->size();
    out->resize(base + la);
    Key *dst = out->data() + base;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < la; ++i) {
        pos = gallopFrom(b, pos, a[i]);
        if (pos < b.size() && b[pos] == a[i])
            ++pos;
        else
            *dst++ = a[i];
    }
    const auto count =
        static_cast<std::uint64_t>(dst - (out->data() + base));
    out->resize(base + count);
    return finishSubtract(a, la, b, count);
}

/** Subtract fast path when the trimmed A dwarfs B (or B is empty):
 *  bulk-copy the A segments between B's (few) hit positions. */
inline SetOpResult
skewSubtractLongA(KeySpan a, std::size_t la, KeySpan b,
                  std::vector<Key> *out)
{
    const std::size_t base = out->size();
    out->resize(base + la);
    Key *dst = out->data() + base;
    std::size_t start = 0;
    for (const Key k : b) {
        if (start >= la)
            break;
        const std::size_t pos = gallopFrom(a.first(la), start, k);
        dst = std::copy(a.begin() + start, a.begin() + pos, dst);
        start = (pos < la && a[pos] == k) ? pos + 1 : pos;
    }
    dst = std::copy(a.begin() + start, a.begin() + la, dst);
    const auto count =
        static_cast<std::uint64_t>(dst - (out->data() + base));
    out->resize(base + count);
    return finishSubtract(a, la, b, count);
}

/**
 * Materializing merge of the AVX2 level: the reference
 * two-pointer core with raw-pointer stores plus bulk tail copies.
 * Merge emits every input element, so it is store-bound and gains
 * little from wide compares; the .C form is where SIMD pays off
 * (count = |A| + |B| - |A ∩ B| via the level's intersect kernel).
 */
inline SetOpResult
mergeMaterialize(KeySpan a, KeySpan b, std::vector<Key> *out)
{
    SetOpResult res;
    const std::size_t base = out->size();
    out->resize(base + a.size() + b.size());
    Key *dst = out->data() + base;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++res.steps;
        const Key ka = a[i], kb = b[j];
        if (ka == kb) {
            *dst++ = ka;
            ++i;
            ++j;
        } else if (ka < kb) {
            *dst++ = ka;
            ++i;
        } else {
            *dst++ = kb;
            ++j;
        }
    }
    dst = std::copy(a.begin() + i, a.end(), dst);
    dst = std::copy(b.begin() + j, b.end(), dst);
    res.count = static_cast<std::uint64_t>(dst - (out->data() + base));
    res.aConsumed = a.size();
    res.bConsumed = b.size();
    out->resize(base + res.count);
    return res;
}

/** AVX2 compaction table: entry m lists the set-bit lanes of the
 *  8-bit mask m in ascending order (zero-padded), feeding
 *  _mm256_permutevar8x32_epi32 to left-pack matched keys. */
struct Avx2EmitTable
{
    alignas(32) std::uint32_t idx[256][8];
};

constexpr Avx2EmitTable
makeAvx2EmitTable()
{
    Avx2EmitTable t{};
    for (unsigned m = 0; m < 256; ++m) {
        unsigned n = 0;
        for (unsigned lane = 0; lane < 8; ++lane)
            if (m & (1u << lane))
                t.idx[m][n++] = lane;
    }
    return t;
}

inline constexpr Avx2EmitTable avx2EmitTable = makeAvx2EmitTable();

} // namespace sc::streams::simd

#endif // SPARSECORE_STREAMS_SIMD_SIMD_UTIL_HH
