/**
 * @file
 * TrieJax model (§2.3/§6.3.1): a Worst-Case-Optimal-Join accelerator
 * that treats the graph as a database table.
 *
 * Modeled as an ExecBackend driven by the same symmetry-broken
 * algorithm, with the paper's two handicaps applied:
 *  - no symmetry-breaking support: every operation's work is
 *    multiplied by the pattern's automorphism count (6/24/120 for
 *    triangle/4-clique/5-clique) and bounds are ignored,
 *  - O(log N) LUB binary search per edge-list lookup instead of the
 *    O(1) CSR access,
 * plus the Partial-Join-Result (PJR) cache, which only holds entries
 * up to 1 KB (256 vertices) — exactly the high-degree lists GPM hits
 * most, so those always miss (the paper's criticism).
 */

#ifndef SPARSECORE_BASELINES_TRIEJAX_HH
#define SPARSECORE_BASELINES_TRIEJAX_HH

#include <vector>

#include "backend/exec_backend.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::baselines {

/** TrieJax parameters. */
struct TrieJaxParams
{
    /** PJR entry size limit in keys (1 KB = 256 four-byte keys). */
    std::uint32_t pjrEntryKeys = 256;
    /** PJR capacity in bytes. */
    std::uint64_t pjrBytes = 512 * 1024;
    /** Cycles per binary-search probe step. */
    Cycles searchStepCost = 2;
    /** Merge-join throughput (elements per cycle). */
    unsigned joinPerCycle = 1;
};

/** The TrieJax backend. */
class TrieJaxBackend : public backend::ExecBackend
{
  public:
    /**
     * @param redundancy automorphism count of the mined pattern (the
     *        factor by which TrieJax over-enumerates without symmetry
     *        breaking)
     * @param table_rows number of rows in the relation (graph edges),
     *        sets the LUB binary-search depth
     */
    TrieJaxBackend(unsigned redundancy, std::uint64_t table_rows,
                   const TrieJaxParams &params = TrieJaxParams{});

    std::string name() const override { return "triejax"; }
    void begin() override;
    Cycles finish() override { return cycles_; }
    sim::CycleBreakdown breakdown() const override;

    backend::BackendStream streamLoad(Addr key_addr,
                                      std::uint32_t length,
                                      unsigned priority,
                                      streams::KeySpan keys) override;
    backend::BackendStream streamLoadKv(Addr key_addr, Addr val_addr,
                                        std::uint32_t length,
                                        unsigned priority,
                                        streams::KeySpan keys) override;
    void streamFree(backend::BackendStream handle) override;

    backend::BackendStream setOp(streams::SetOpKind kind,
                                 backend::BackendStream a,
                                 backend::BackendStream b,
                                 streams::KeySpan ak,
                                 streams::KeySpan bk, Key bound,
                                 streams::KeySpan result,
                                 Addr out_addr) override;
    void setOpCount(streams::SetOpKind kind, backend::BackendStream a,
                    backend::BackendStream b, streams::KeySpan ak,
                    streams::KeySpan bk, Key bound,
                    std::uint64_t count) override;

    void valueIntersect(backend::BackendStream a,
                        backend::BackendStream b, streams::KeySpan ak,
                        streams::KeySpan bk, Addr a_val_base,
                        Addr b_val_base,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override;
    backend::BackendStream valueMerge(backend::BackendStream a,
                                      backend::BackendStream b,
                                      streams::KeySpan ak,
                                      streams::KeySpan bk,
                                      Addr a_val_base, Addr b_val_base,
                                      std::uint64_t result_len,
                                      Addr out_addr) override;

    void iterateStream(backend::BackendStream handle, std::uint64_t n,
                       unsigned ops_per_element) override;

  private:
    /** Charge one operand traversal with LUB search + PJR lookup. */
    void joinOp(streams::KeySpan ak, Addr a_addr, streams::KeySpan bk,
                Addr b_addr);

    /** PJR lookup: returns per-element access cost. */
    Cycles pjrAccess(Addr addr, std::uint64_t keys);

    unsigned redundancy_;
    Cycles lubSearchCost_;
    TrieJaxParams params_;
    sim::MemHierarchy mem_;
    std::vector<Addr> streams_;
    Cycles cycles_ = 0;
    Cycles memCycles_ = 0;
};

} // namespace sc::baselines

#endif // SPARSECORE_BASELINES_TRIEJAX_HH
