/**
 * @file
 * Portable scalar kernel table: thin trampolines onto the reference
 * two-pointer functions in streams/set_ops.hh. It is the process
 * default on hosts and builds without AVX2, and every other level is
 * property-tested against this one.
 */

#include "streams/simd/kernel_table.hh"

namespace sc::streams::simd {

namespace {

SetOpResult
scalarIntersect(KeySpan a, KeySpan b, Key bound, std::vector<Key> *out)
{
    return streams::intersect(a, b, bound, out);
}

SetOpResult
scalarSubtract(KeySpan a, KeySpan b, Key bound, std::vector<Key> *out)
{
    return streams::subtract(a, b, bound, out);
}

SetOpResult
scalarMerge(KeySpan a, KeySpan b, std::vector<Key> *out)
{
    return streams::merge(a, b, out);
}

} // namespace

const KernelTable &
scalarKernelTable()
{
    static const KernelTable table{KernelLevel::Scalar, &scalarIntersect,
                                   &scalarSubtract, &scalarMerge};
    return table;
}

} // namespace sc::streams::simd
