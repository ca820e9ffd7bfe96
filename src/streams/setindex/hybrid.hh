/**
 * @file
 * Hybrid-format set-op kernels: array x bitmap gallop-probe and
 * bitmap x bitmap word kernels, dispatched per-operand from
 * streams::runSetOp via tryRunIndexed().
 *
 * Every kernel here returns outputs in ORIGINAL key order and
 * reconstructs the scalar reference loop's SetOpResult in closed form
 * (streams/simd/simd_util.hh finishIntersect/finishSubtract/
 * finishMerge on the original spans), exactly like the SIMD array
 * kernels — so the suCost / CpuBackend cost models and golden-trace
 * replay are untouched by format choice.
 */

#ifndef SPARSECORE_STREAMS_SETINDEX_HYBRID_HH
#define SPARSECORE_STREAMS_SETINDEX_HYBRID_HH

#include <algorithm>
#include <vector>

#include "streams/set_ops.hh"
#include "streams/setindex/policy.hh"
#include "streams/setindex/registry.hh"

namespace sc::streams::setindex {

/** Ops whose LONGER operand is below this skip the index without even
 *  resolving the registry: span resolution plus bound trimming costs
 *  on the order of 100ns, which a bitmap kernel can only win back
 *  when the op is at least a few hundred elements. Keeps the runSetOp
 *  fast path one size compare for small ops. Tuned by the
 *  kernel_microbench workload leg (BENCH_setindex.json). */
constexpr std::size_t autoMinIndexedKeys = 256;

/** Cheap gate inlined into runSetOp: worth calling tryRunIndexed()? */
inline bool
indexedDispatchPossible(KeySpan a, KeySpan b)
{
    if (std::max(a.size(), b.size()) < autoMinIndexedKeys)
        return false;
    if (registryEmpty())
        return false;
    return activeIndexPolicy() == IndexPolicy::Auto;
}

/**
 * Attempt the op with hybrid-format kernels; call only when
 * indexedDispatchPossible() holds. Returns true (and fills `res`,
 * appending to `out` when materializing) when an indexed format
 * handled it; false falls back to the array kernel table.
 * Bit-identical to the array path in outputs and SetOpResult.
 */
bool tryRunIndexed(SetOpKind kind, KeySpan a, KeySpan b, Key bound,
                   std::vector<Key> *out, SetOpResult &res);

} // namespace sc::streams::setindex

#endif // SPARSECORE_STREAMS_SETINDEX_HYBRID_HH
