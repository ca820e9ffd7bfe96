#include "tensor/sparse_matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace sc::tensor {

SparseMatrix
SparseMatrix::fromTriplets(std::uint32_t rows, std::uint32_t cols,
                           std::vector<Triplet> triplets, std::string name)
{
    for (const auto &t : triplets)
        if (t.row >= rows || t.col >= cols)
            fatal("triplet (%u,%u) outside %ux%u matrix", t.row, t.col,
                  rows, cols);

    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet &x, const Triplet &y) {
                  return std::tie(x.row, x.col) < std::tie(y.row, y.col);
              });

    SparseMatrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.name_ = std::move(name);
    m.rowPtr_.assign(rows + 1, 0);
    m.colIdx_.reserve(triplets.size());
    m.vals_.reserve(triplets.size());

    for (std::size_t i = 0; i < triplets.size();) {
        const std::uint32_t r = triplets[i].row;
        const std::uint32_t c = triplets[i].col;
        Value sum = 0.0;
        while (i < triplets.size() && triplets[i].row == r &&
               triplets[i].col == c) {
            sum += triplets[i].value;
            ++i;
        }
        m.colIdx_.push_back(c);
        m.vals_.push_back(sum);
        ++m.rowPtr_[r + 1];
    }
    for (std::uint32_t r = 0; r < rows; ++r)
        m.rowPtr_[r + 1] += m.rowPtr_[r];
    m.fingerprint_ = Fingerprint().add(rows).add(cols).add(m.rowPtr_)
                         .add(m.colIdx_).add(m.vals_).value();
    return m;
}

SparseMatrix
SparseMatrix::transpose() const
{
    std::vector<Triplet> triplets;
    triplets.reserve(nnz());
    for (std::uint32_t r = 0; r < rows_; ++r) {
        auto keys = rowKeys(r);
        auto vals = rowVals(r);
        for (std::size_t k = 0; k < keys.size(); ++k)
            triplets.push_back({keys[k], r, vals[k]});
    }
    return fromTriplets(cols_, rows_, std::move(triplets),
                        name_ + "^T");
}

std::vector<Value>
SparseMatrix::toDense() const
{
    std::vector<Value> dense(static_cast<std::size_t>(rows_) * cols_,
                             0.0);
    for (std::uint32_t r = 0; r < rows_; ++r) {
        auto keys = rowKeys(r);
        auto vals = rowVals(r);
        for (std::size_t k = 0; k < keys.size(); ++k)
            dense[static_cast<std::size_t>(r) * cols_ + keys[k]] =
                vals[k];
    }
    return dense;
}

double
SparseMatrix::maxAbsDiff(const SparseMatrix &other) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        fatal("matrix shape mismatch: %ux%u vs %ux%u", rows_, cols_,
              other.rows_, other.cols_);
    const auto a = toDense();
    const auto b = other.toDense();
    double max_diff = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
    return max_diff;
}

} // namespace sc::tensor
