#include "tensor/csf_tensor.hh"

#include <algorithm>
#include <tuple>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace sc::tensor {

CsfTensor
CsfTensor::fromEntries(std::uint32_t dim_i, std::uint32_t dim_j,
                       std::uint32_t dim_k,
                       std::vector<TensorEntry> entries, std::string name)
{
    for (const auto &e : entries)
        if (e.i >= dim_i || e.j >= dim_j || e.k >= dim_k)
            fatal("tensor entry (%u,%u,%u) outside %ux%ux%u", e.i, e.j,
                  e.k, dim_i, dim_j, dim_k);

    std::sort(entries.begin(), entries.end(),
              [](const TensorEntry &x, const TensorEntry &y) {
                  return std::tie(x.i, x.j, x.k) <
                         std::tie(y.i, y.j, y.k);
              });

    CsfTensor t;
    t.dimI_ = dim_i;
    t.dimJ_ = dim_j;
    t.dimK_ = dim_k;
    t.name_ = std::move(name);

    std::size_t idx = 0;
    while (idx < entries.size()) {
        const std::uint32_t i = entries[idx].i;
        t.iIdx_.push_back(i);
        t.iPtr_.push_back(t.jIdx_.size());
        while (idx < entries.size() && entries[idx].i == i) {
            const std::uint32_t j = entries[idx].j;
            t.jIdx_.push_back(j);
            t.jPtr_.push_back(t.kIdx_.size());
            while (idx < entries.size() && entries[idx].i == i &&
                   entries[idx].j == j) {
                const std::uint32_t k = entries[idx].k;
                Value sum = 0.0;
                while (idx < entries.size() && entries[idx].i == i &&
                       entries[idx].j == j && entries[idx].k == k) {
                    sum += entries[idx].value;
                    ++idx;
                }
                t.kIdx_.push_back(k);
                t.vals_.push_back(sum);
            }
        }
    }
    t.iPtr_.push_back(t.jIdx_.size());
    t.jPtr_.push_back(t.kIdx_.size());
    t.fingerprint_ = Fingerprint().add(dim_i).add(dim_j).add(dim_k)
                         .add(t.iIdx_).add(t.iPtr_).add(t.jIdx_)
                         .add(t.jPtr_).add(t.kIdx_).add(t.vals_).value();
    return t;
}

double
CsfTensor::density() const
{
    const double cells = static_cast<double>(dimI_) * dimJ_ * dimK_;
    return cells > 0 ? static_cast<double>(nnz()) / cells : 0.0;
}

} // namespace sc::tensor
