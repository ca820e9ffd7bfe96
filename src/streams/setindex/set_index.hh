/**
 * @file
 * Per-graph hybrid bitmap/array stream set index.
 *
 * The sorted-array kernels of PR 3 squeezed the array representation;
 * the remaining multiplier for dense neighborhoods is the
 * representation itself: membership of a key in a high-degree
 * adjacency list is one word test in a bitmap, and whole-list
 * intersection counts collapse to word-AND + popcount.
 *
 * A plain per-list bitmap over original vertex IDs would span the
 * whole ID range (density ~ degree/|V|), so almost no list would be
 * dense enough to afford one. StreamSetIndex therefore relabels
 * vertices by DESCENDING DEGREE once at CsrGraph build time: hubs —
 * exactly the vertices that populate high-degree neighborhoods —
 * cluster near rank 0, so a dense list's rank range collapses and its
 * bitmap chunk (64-bit words covering [firstWord, firstWord+numWords)
 * of rank space) becomes small and dense. The permutation lives ONLY
 * inside the index: the graph's CSR arrays, every emitted key, and
 * every SetOpResult stay in original IDs, bit-identical to the
 * array-only path (the inverse permutation is never applied to user
 * data — probes map each queried original key through perm once).
 *
 * Lists are stored adaptively: every list keeps the graph's sorted
 * array (it IS the CSR edge array); lists with degree >=
 * Params::minBitmapDegree additionally get a bitmap chunk when the
 * chunk is at most Params::wordsPerKey words per key (1 word/key,
 * i.e. rank-range density >= 1/64). The thresholds are justified by
 * the bench/kernel_microbench density x skew sweep
 * (BENCH_setindex.json).
 *
 * Cost-model contract: the index is a HOST-side acceleration
 * structure. suCost and CpuBackend never see it, and every hybrid
 * kernel reconstructs the scalar reference loop's SetOpResult in
 * closed form (streams/simd/simd_util.hh), so simulated cycles and
 * golden traces are invariant under the index policy (DESIGN.md §11).
 */

#ifndef SPARSECORE_STREAMS_SETINDEX_SET_INDEX_HH
#define SPARSECORE_STREAMS_SETINDEX_SET_INDEX_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"
#include "streams/set_ops.hh"

namespace sc::streams::setindex {

/** Build thresholds for StreamSetIndex (see the file comment for the
 *  rationale; namespace-scope so it can default-initialize build()'s
 *  parameter). */
struct IndexParams
{
    /** Lists shorter than this never get a bitmap — a handful of
     *  key compares beats even one perm[] + word probe. */
    std::uint32_t minBitmapDegree = 8;
    /** Chunk budget: words <= degree * this (1 word per key =
     *  rank-range density >= 1/64). */
    std::uint32_t wordsPerKey = 1;
};

/** Degree-ordered relabeling + adaptive per-list bitmap chunks for
 *  one CSR graph. Immutable after build(); shared by graph copies. */
class StreamSetIndex
{
  public:
    using Params = IndexParams;

    /** One list's bitmap chunk over rank space; words[i] covers ranks
     *  [(firstWord+i)*64, (firstWord+i)*64+64). Invalid (words ==
     *  nullptr) when the list is array-only. */
    struct BitmapView
    {
        const std::uint64_t *words = nullptr;
        std::uint32_t firstWord = 0;
        std::uint32_t numWords = 0;

        bool valid() const { return words != nullptr; }
    };

    /**
     * Build the index for a CSR graph. Returns nullptr when the graph
     * is empty or any edge key is not a vertex id (synthetic CSR
     * arrays used by benches may embed out-of-range keys; such graphs
     * simply run array-only).
     */
    static std::shared_ptr<const StreamSetIndex>
    build(const std::vector<std::uint64_t> &offsets,
          const std::vector<Key> &edges, Params params = Params{});

    VertexId
    numVertices() const
    {
        return static_cast<VertexId>(perm_.size());
    }

    /** Degree-descending rank of original vertex id v. */
    std::uint32_t rank(Key v) const { return perm_[v]; }
    /** Original vertex id at rank r (inverse permutation). */
    Key originalId(std::uint32_t r) const { return inv_[r]; }

    std::span<const std::uint32_t> perm() const { return perm_; }

    /** Bitmap chunk of N(v) (invalid view when array-only). */
    BitmapView
    bitmap(VertexId v) const
    {
        const ListMeta &m = lists_[v];
        if (m.numWords == 0)
            return {};
        return {words_.data() + m.wordOff, m.firstWord, m.numWords};
    }

    /** One-word membership probe: is original key k in the list the
     *  view describes? */
    bool
    contains(const BitmapView &bm, Key k) const
    {
        if (k >= perm_.size())
            return false;
        const std::uint32_t r = perm_[k];
        const std::uint32_t w = r >> 6;
        if (w < bm.firstWord || w - bm.firstWord >= bm.numWords)
            return false;
        return (bm.words[w - bm.firstWord] >> (r & 63)) & 1u;
    }

    // ---- stats (benches, DESIGN.md numbers, tests) ----
    std::uint64_t numBitmaps() const { return numBitmaps_; }
    const Params &params() const { return params_; }

    // ---- (key,value) relabel/restore round trip ----
    // S_VINTER/S_VMERGE streams can be carried through rank space and
    // back without loss: relabel() maps keys through perm and re-sorts
    // (values follow their keys), restore() maps back through inv and
    // re-sorts. Both permutations are bijective over [0, numVertices),
    // so restore(relabel(s)) == s bit-identically for any (key,value)
    // stream whose keys are vertex ids (tests/set_index_test.cc).

    /** Map a sorted original-id (key,value) stream into rank space.
     *  `values` may be empty (key-only stream). */
    void relabel(KeySpan keys, ValueSpan values, std::vector<Key> &outKeys,
                 std::vector<Value> &outValues) const;

    /** Inverse of relabel(): rank-space stream back to sorted
     *  original ids. */
    void restore(KeySpan rankKeys, ValueSpan values,
                 std::vector<Key> &outKeys,
                 std::vector<Value> &outValues) const;

  private:
    StreamSetIndex() = default;

    struct ListMeta
    {
        std::uint64_t wordOff = 0;
        std::uint32_t firstWord = 0;
        std::uint32_t numWords = 0; ///< 0 = array-only
    };

    std::vector<std::uint32_t> perm_; ///< original id -> rank
    std::vector<Key> inv_;            ///< rank -> original id
    std::vector<std::uint64_t> words_;
    std::vector<ListMeta> lists_;
    std::uint64_t numBitmaps_ = 0;
    Params params_;
};

} // namespace sc::streams::setindex

#endif // SPARSECORE_STREAMS_SETINDEX_SET_INDEX_HH
