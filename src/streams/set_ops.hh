/**
 * @file
 * Sorted-stream set operations: intersection, subtraction, merge, and
 * their (key,value) variants — the primitives behind S_INTER/S_SUB/
 * S_MERGE/S_VINTER/S_VMERGE (§3.3).
 *
 * Each operation supports the paper's upper-bound early termination
 * (operand R3): for intersection/subtraction, computation stops once
 * every remaining output element would be >= the bound.
 *
 * Two cost views are produced:
 *  - scalar steps and consumed counts (SetOpResult; the CPU
 *    baseline walks the same loop itself to drive its branch
 *    predictor and Fig. 9's mispredict cycles), and
 *  - SU parallel-comparison cycles under the Fig. 6 model (16-wide
 *    window, both pointers may skip up to the window per cycle),
 *    computed by suCycles().
 */

#ifndef SPARSECORE_STREAMS_SET_OPS_HH
#define SPARSECORE_STREAMS_SET_OPS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"

namespace sc::streams {

using KeySpan = std::span<const Key>;
using ValueSpan = std::span<const Value>;

/** The three set-operation kinds of the stream ISA. */
enum class SetOpKind : unsigned { Intersect, Subtract, Merge };
/** Number of SetOpKind values, for per-kind arrays. */
inline constexpr std::size_t numSetOpKinds = 3;

const char *setOpName(SetOpKind kind);

/** Work summary of one set operation. */
struct SetOpResult
{
    std::uint64_t count = 0;     ///< output length
    std::uint64_t steps = 0;     ///< scalar loop iterations
    std::uint64_t aConsumed = 0; ///< elements read from operand A
    std::uint64_t bConsumed = 0; ///< elements read from operand B
};

/**
 * Intersection of two sorted key streams with optional upper bound.
 * @param a,b sorted operands
 * @param bound exclusive upper bound on output keys (noBound = none)
 * @param out optional output vector (appended); null for .C variants
 */
inline SetOpResult
intersect(KeySpan a, KeySpan b, Key bound = noBound,
          std::vector<Key> *out = nullptr)
{
    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        const Key ka = a[i], kb = b[j];
        // Every future match is >= max(ka, kb): once either side
        // reaches the bound nothing below it can still be produced.
        if (ka >= bound || kb >= bound)
            break;
        ++res.steps;
        if (ka == kb) {
            if (out)
                out->push_back(ka);
            ++res.count;
            ++i;
            ++j;
        } else if (ka < kb) {
            ++i;
        } else {
            ++j;
        }
    }
    res.aConsumed = i;
    res.bConsumed = j;
    return res;
}

/**
 * Subtraction a - b (keys of a absent from b), optional upper bound on
 * output keys.
 */
inline SetOpResult
subtract(KeySpan a, KeySpan b, Key bound = noBound,
         std::vector<Key> *out = nullptr)
{
    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < a.size()) {
        const Key ka = a[i];
        if (ka >= bound)
            break;
        if (j >= b.size() || ka < b[j]) {
            ++res.steps;
            if (out)
                out->push_back(ka);
            ++res.count;
            ++i;
        } else if (ka == b[j]) {
            ++res.steps;
            ++i;
            ++j;
        } else {
            ++res.steps;
            ++j;
        }
    }
    res.aConsumed = i;
    res.bConsumed = j;
    return res;
}

/** Merge (set union) of two sorted key streams. */
inline SetOpResult
merge(KeySpan a, KeySpan b, std::vector<Key> *out = nullptr)
{
    SetOpResult res;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        ++res.steps;
        const Key ka = a[i], kb = b[j];
        Key k;
        if (ka == kb) {
            k = ka;
            ++i;
            ++j;
        } else if (ka < kb) {
            k = ka;
            ++i;
        } else {
            k = kb;
            ++j;
        }
        if (out)
            out->push_back(k);
        ++res.count;
    }
    // Tail copy of the survivor (§3.4 Gustavson tail handling).
    for (; i < a.size(); ++i) {
        if (out)
            out->push_back(a[i]);
        ++res.count;
    }
    for (; j < b.size(); ++j) {
        if (out)
            out->push_back(b[j]);
        ++res.count;
    }
    res.aConsumed = a.size();
    res.bConsumed = b.size();
    return res;
}

/** Value-combination operators of S_VINTER's IMM field. */
enum class ValueOp : unsigned { Mac, MaxAcc, MinAcc };

const char *valueOpName(ValueOp op);

/**
 * S_VINTER semantics: intersect keys, combine matching values, and
 * accumulate (sum of products for Mac; running max/min otherwise).
 * When one operand's remainder is >= 32x the other's, the long side
 * advances by galloping search; the returned value, work summary and
 * match positions are identical to the two-pointer reference.
 * @param match_pos_a optional matched element positions in stream A
 *        (drives VA_gen value-address generation in the SVPU model)
 * @param match_pos_b same for stream B
 */
Value valueIntersect(KeySpan ak, ValueSpan av, KeySpan bk, ValueSpan bv,
                     ValueOp op, SetOpResult *work = nullptr,
                     std::vector<std::uint32_t> *match_pos_a = nullptr,
                     std::vector<std::uint32_t> *match_pos_b = nullptr);

/**
 * S_VMERGE semantics: merged keys; each output value is
 * scale_a*av + scale_b*bv with missing operands contributing zero.
 */
SetOpResult valueMerge(KeySpan ak, ValueSpan av, KeySpan bk, ValueSpan bv,
                       Value scale_a, Value scale_b,
                       std::vector<Key> &out_keys,
                       std::vector<Value> &out_vals);

/** SU execution cost of one set operation (see suCost()). */
struct SuCost
{
    Cycles cycles = 0;           ///< comparator cycles
    std::uint64_t aConsumed = 0; ///< elements transferred from A
    std::uint64_t bConsumed = 0; ///< elements transferred from B
};

/**
 * Cycle count and data volume of one set operation on a Stream Unit
 * under the Fig. 6 parallel-comparison model.
 *
 * Each cycle the head of each stream is compared against a window of
 * the other stream; a pointer may skip up to `width` elements per
 * cycle. Intersection emits at most one result per cycle; subtraction
 * and merge may emit several.
 *
 * Host-side fast paths (identical returned costs, faster to compute):
 * heavily skewed remainders (>= 32x) advance by galloping search and
 * charge ceil(distance/width) cycles analytically, and the Subtract
 * tail below the bound is counted with one binary search.
 *
 * @param width SU comparator window (the paper's buffer is 16)
 */
SuCost suCost(KeySpan a, KeySpan b, SetOpKind kind, Key bound = noBound,
              unsigned width = 16);

/** Convenience wrapper returning only the cycle count. */
Cycles suCycles(KeySpan a, KeySpan b, SetOpKind kind, Key bound = noBound,
                unsigned width = 16);

// ---------------- dispatched host kernels ----------------
// The functions above are the scalar REFERENCE. Functional hot paths go
// through these entry points instead, which route to the process's
// active kernel table (streams/simd/kernel_table.hh): AVX2 or scalar,
// CPUID-selected. All levels return bit-identical SetOpResults and
// outputs; only host wall-clock changes. Defined in
// streams/simd/kernel_table.cc.

/** One set operation via the active kernel table (Merge ignores the
 *  bound). @param out optional output vector (appended). */
SetOpResult runSetOp(SetOpKind kind, KeySpan a, KeySpan b,
                     Key bound = noBound, std::vector<Key> *out = nullptr);

/** Counting (.C) form — the same dispatch with no output buffer, so
 *  counts can never diverge from the materializing results. */
SetOpResult runSetOpCount(SetOpKind kind, KeySpan a, KeySpan b,
                          Key bound = noBound);

} // namespace sc::streams

#endif // SPARSECORE_STREAMS_SET_OPS_HH
