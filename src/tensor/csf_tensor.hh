/**
 * @file
 * Third-order sparse tensor in compressed sparse fiber (CSF) form,
 * mode order (i, j, k): i-slices -> j-fibers -> k entries. Used by the
 * TTV and TTM kernels (§6.2/§6.9).
 */

#ifndef SPARSECORE_TENSOR_CSF_TENSOR_HH
#define SPARSECORE_TENSOR_CSF_TENSOR_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sc::tensor {

/** (i, j, k, value) entry used during construction. */
struct TensorEntry
{
    std::uint32_t i;
    std::uint32_t j;
    std::uint32_t k;
    Value value;
};

/** Immutable 3-order CSF tensor. */
class CsfTensor
{
  public:
    CsfTensor() = default;

    /** Build from entries; duplicates are summed. */
    static CsfTensor fromEntries(std::uint32_t dim_i, std::uint32_t dim_j,
                                 std::uint32_t dim_k,
                                 std::vector<TensorEntry> entries,
                                 std::string name = "tensor");

    std::uint32_t dimI() const { return dimI_; }
    std::uint32_t dimJ() const { return dimJ_; }
    std::uint32_t dimK() const { return dimK_; }
    std::uint64_t nnz() const { return kIdx_.size(); }
    double density() const;

    /** Number of non-empty i slices. */
    std::uint32_t numSlices() const
    {
        return static_cast<std::uint32_t>(iIdx_.size());
    }
    std::uint32_t sliceRoot(std::uint32_t s) const { return iIdx_[s]; }

    /** j coordinates of the fibers in slice s. */
    std::span<const Key>
    sliceFiberKeys(std::uint32_t s) const
    {
        return {jIdx_.data() + iPtr_[s], jIdx_.data() + iPtr_[s + 1]};
    }
    /** Fiber index range [begin,end) for slice s. */
    std::uint64_t fiberBegin(std::uint32_t s) const { return iPtr_[s]; }
    std::uint64_t fiberEnd(std::uint32_t s) const { return iPtr_[s + 1]; }

    /** k coordinates of fiber f (sorted: a key stream). */
    std::span<const Key>
    fiberKeys(std::uint64_t f) const
    {
        return {kIdx_.data() + jPtr_[f], kIdx_.data() + jPtr_[f + 1]};
    }
    /** Values of fiber f, aligned with fiberKeys(). */
    std::span<const Value>
    fiberVals(std::uint64_t f) const
    {
        return {vals_.data() + jPtr_[f], vals_.data() + jPtr_[f + 1]};
    }

    /** Simulated byte address of fiber f's keys / values. */
    Addr
    fiberKeyAddr(std::uint64_t f) const
    {
        return keyBase_ + jPtr_[f] * sizeof(Key);
    }
    Addr
    fiberValAddr(std::uint64_t f) const
    {
        return valBase_ + jPtr_[f] * sizeof(Value);
    }

    const std::string &name() const { return name_; }

    /** Content fingerprint (common/fingerprint.hh over the dimensions
     *  and the CSF arrays, name excluded), computed once at
     *  construction; the artifact store's TTV and TTM keys are built
     *  from it. */
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    std::uint32_t dimI_ = 0, dimJ_ = 0, dimK_ = 0;
    std::vector<std::uint32_t> iIdx_; ///< root coordinates (slices)
    std::vector<std::uint64_t> iPtr_; ///< slice -> fiber range
    std::vector<Key> jIdx_;           ///< fiber coordinates
    std::vector<std::uint64_t> jPtr_; ///< fiber -> entry range
    std::vector<Key> kIdx_;           ///< entry coordinates
    std::vector<Value> vals_;
    std::uint64_t fingerprint_ = 0;
    std::string name_;
    Addr keyBase_ = 0x400000000ull;
    Addr valBase_ = 0x500000000ull;
};

} // namespace sc::tensor

#endif // SPARSECORE_TENSOR_CSF_TENSOR_HH
