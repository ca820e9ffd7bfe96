/**
 * @file
 * Sparse matrix in compressed sparse row (CSR) form with values —
 * the (key,value) stream substrate for spmspm (§2.1, §6.9).
 */

#ifndef SPARSECORE_TENSOR_SPARSE_MATRIX_HH
#define SPARSECORE_TENSOR_SPARSE_MATRIX_HH

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hh"

namespace sc::tensor {

/** (row, col, value) triplet used during construction. */
struct Triplet
{
    std::uint32_t row;
    std::uint32_t col;
    Value value;
};

/** Immutable CSR sparse matrix. */
class SparseMatrix
{
  public:
    SparseMatrix() = default;

    /** Build from triplets; duplicates are summed. */
    static SparseMatrix fromTriplets(std::uint32_t rows,
                                     std::uint32_t cols,
                                     std::vector<Triplet> triplets,
                                     std::string name = "matrix");

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }
    std::uint64_t nnz() const { return colIdx_.size(); }
    double
    density() const
    {
        return rows_ && cols_ ? static_cast<double>(nnz()) /
                                    (static_cast<double>(rows_) * cols_)
                              : 0.0;
    }

    std::uint32_t
    rowNnz(std::uint32_t r) const
    {
        return static_cast<std::uint32_t>(rowPtr_[r + 1] - rowPtr_[r]);
    }

    /** Sorted column indices of row r (a key stream). */
    std::span<const Key>
    rowKeys(std::uint32_t r) const
    {
        return {colIdx_.data() + rowPtr_[r],
                colIdx_.data() + rowPtr_[r + 1]};
    }
    /** Values of row r, aligned with rowKeys(). */
    std::span<const Value>
    rowVals(std::uint32_t r) const
    {
        return {vals_.data() + rowPtr_[r], vals_.data() + rowPtr_[r + 1]};
    }

    /** Transposed copy (CSR of A^T doubles as CSC of A). */
    SparseMatrix transpose() const;

    /** Dense expansion, row-major; only for small validation cases. */
    std::vector<Value> toDense() const;

    /** Sum of absolute differences against another matrix. */
    double maxAbsDiff(const SparseMatrix &other) const;

    /** Simulated byte address of row r's first column index. */
    Addr
    rowKeyAddr(std::uint32_t r) const
    {
        return keyBase_ + rowPtr_[r] * sizeof(Key);
    }
    /** Simulated byte address of row r's first value. */
    Addr
    rowValAddr(std::uint32_t r) const
    {
        return valBase_ + rowPtr_[r] * sizeof(Value);
    }

    const std::string &name() const { return name_; }
    const std::vector<std::uint64_t> &rowPtr() const { return rowPtr_; }

    /** Content fingerprint (common/fingerprint.hh over the shape and
     *  the CSR arrays, name excluded), computed once at construction;
     *  the artifact store's spmspm and TTM keys are built from it. */
    std::uint64_t fingerprint() const { return fingerprint_; }

  private:
    std::uint32_t rows_ = 0;
    std::uint32_t cols_ = 0;
    std::vector<std::uint64_t> rowPtr_;
    std::vector<Key> colIdx_;
    std::vector<Value> vals_;
    std::uint64_t fingerprint_ = 0;
    std::string name_;
    Addr keyBase_ = 0x200000000ull;
    Addr valBase_ = 0x300000000ull;
};

} // namespace sc::tensor

#endif // SPARSECORE_TENSOR_SPARSE_MATRIX_HH
