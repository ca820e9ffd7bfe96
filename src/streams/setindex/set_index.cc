#include "streams/setindex/set_index.hh"

#include <algorithm>
#include <utility>

namespace sc::streams::setindex {

std::shared_ptr<const StreamSetIndex>
StreamSetIndex::build(const std::vector<std::uint64_t> &offsets,
                      const std::vector<Key> &edges, Params params)
{
    if (offsets.size() < 2 || edges.empty())
        return nullptr;
    const std::size_t n = offsets.size() - 1;
    // The permutation is defined over vertex ids only; a key outside
    // [0, n) (possible in hand-built synthetic CSR arrays) would have
    // no rank, so such graphs run array-only.
    for (const Key k : edges)
        if (k >= n)
            return nullptr;

    std::shared_ptr<StreamSetIndex> idx(new StreamSetIndex);
    idx->params_ = params;

    // Degree-descending relabel via counting sort (stable: equal
    // degrees keep ascending id order, so the permutation is
    // deterministic for a given graph).
    std::uint32_t max_degree = 0;
    for (std::size_t v = 0; v < n; ++v)
        max_degree = std::max(
            max_degree,
            static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]));
    std::vector<std::uint32_t> bucket_start(max_degree + 2, 0);
    for (std::size_t v = 0; v < n; ++v)
        ++bucket_start[max_degree -
                       static_cast<std::uint32_t>(offsets[v + 1] -
                                                  offsets[v])];
    std::uint32_t running = 0;
    for (std::uint32_t d = 0; d <= max_degree + 1u; ++d) {
        const std::uint32_t c = bucket_start[d];
        bucket_start[d] = running;
        running += c;
    }
    idx->perm_.resize(n);
    idx->inv_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        const std::uint32_t inv_degree =
            max_degree - static_cast<std::uint32_t>(offsets[v + 1] -
                                                    offsets[v]);
        const std::uint32_t r = bucket_start[inv_degree]++;
        idx->perm_[v] = r;
        idx->inv_[r] = static_cast<Key>(v);
    }

    // Adaptive bitmap chunks: a list qualifies when its rank range
    // fits the per-key word budget. Degree-descending ranks make the
    // neighbor ranks of dense lists cluster near 0, which is what
    // shrinks (firstWord, numWords) enough to pass.
    idx->lists_.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t lo = offsets[v], hi = offsets[v + 1];
        const auto degree = static_cast<std::uint32_t>(hi - lo);
        if (degree < params.minBitmapDegree)
            continue;
        std::uint32_t min_rank = idx->perm_[edges[lo]];
        std::uint32_t max_rank = min_rank;
        for (std::uint64_t e = lo + 1; e < hi; ++e) {
            const std::uint32_t r = idx->perm_[edges[e]];
            min_rank = std::min(min_rank, r);
            max_rank = std::max(max_rank, r);
        }
        const std::uint32_t first_word = min_rank >> 6;
        const std::uint32_t num_words = (max_rank >> 6) - first_word + 1;
        if (num_words >
            static_cast<std::uint64_t>(degree) * params.wordsPerKey)
            continue;
        ListMeta &m = idx->lists_[v];
        m.wordOff = idx->words_.size();
        m.firstWord = first_word;
        m.numWords = num_words;
        idx->words_.resize(m.wordOff + num_words, 0);
        std::uint64_t *w = idx->words_.data() + m.wordOff;
        for (std::uint64_t e = lo; e < hi; ++e) {
            const std::uint32_t r = idx->perm_[edges[e]];
            w[(r >> 6) - first_word] |= std::uint64_t{1} << (r & 63);
        }
        ++idx->numBitmaps_;
    }
    return idx;
}

void
StreamSetIndex::relabel(KeySpan keys, ValueSpan values,
                        std::vector<Key> &outKeys,
                        std::vector<Value> &outValues) const
{
    std::vector<std::pair<Key, Value>> kv(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        kv[i] = {static_cast<Key>(perm_[keys[i]]),
                 values.empty() ? Value{} : values[i]};
    std::sort(kv.begin(), kv.end(),
              [](const auto &x, const auto &y) { return x.first < y.first; });
    outKeys.resize(kv.size());
    outValues.resize(values.empty() ? 0 : kv.size());
    for (std::size_t i = 0; i < kv.size(); ++i) {
        outKeys[i] = kv[i].first;
        if (!values.empty())
            outValues[i] = kv[i].second;
    }
}

void
StreamSetIndex::restore(KeySpan rankKeys, ValueSpan values,
                        std::vector<Key> &outKeys,
                        std::vector<Value> &outValues) const
{
    std::vector<std::pair<Key, Value>> kv(rankKeys.size());
    for (std::size_t i = 0; i < rankKeys.size(); ++i)
        kv[i] = {inv_[rankKeys[i]],
                 values.empty() ? Value{} : values[i]};
    std::sort(kv.begin(), kv.end(),
              [](const auto &x, const auto &y) { return x.first < y.first; });
    outKeys.resize(kv.size());
    outValues.resize(values.empty() ? 0 : kv.size());
    for (std::size_t i = 0; i < kv.size(); ++i) {
        outKeys[i] = kv[i].first;
        if (!values.empty())
            outValues[i] = kv[i].second;
    }
}

} // namespace sc::streams::setindex
