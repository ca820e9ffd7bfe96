/**
 * @file
 * FlexMiner model (§2.3/§6.1): a pattern-aware GPM accelerator whose
 * PEs replace stream intersection with cmap (connectivity-map)
 * probing. Modeled as an ExecBackend so it runs the same algorithm as
 * SparseCore (the paper stresses both implement identical
 * algorithms): a set operation builds the cmap of one operand once
 * per outer-loop subtree (build reuse tracked by operand address) and
 * probes each element of the other operand at one probe per cycle.
 * Graph data moves through a PE-local buffer plus the 4 MB shared
 * cache. The hardware exploration engine walks the tree itself, so
 * per-iteration control costs almost nothing — but every comparison
 * is a serial probe, which is where SparseCore's 16-wide parallel
 * comparison wins its ~2.7x.
 */

#ifndef SPARSECORE_BASELINES_FLEXMINER_HH
#define SPARSECORE_BASELINES_FLEXMINER_HH

#include <vector>

#include "backend/exec_backend.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::baselines {

/** FlexMiner PE parameters. */
struct FlexMinerParams
{
    /** cmap insertions per cycle during the build phase. */
    unsigned buildPerCycle = 1;
    /** probes per cycle. */
    unsigned probesPerCycle = 1;
    /** hardware tree-walk cost per candidate element (cycles). */
    double walkCostPerElement = 0.5;
    /** shared on-chip cache (4 MB in the paper). */
    std::uint64_t sharedCacheBytes = 4 * 1024 * 1024;
};

/** The FlexMiner backend. */
class FlexMinerBackend : public backend::ExecBackend
{
  public:
    explicit FlexMinerBackend(
        const FlexMinerParams &params = FlexMinerParams{});

    std::string name() const override { return "flexminer"; }
    void begin() override;
    Cycles finish() override { return cycles_; }
    sim::CycleBreakdown breakdown() const override;

    void scalarOps(std::uint64_t n) override;
    void scalarBranch(std::uint64_t pc, bool taken) override;
    void scalarLoad(Addr addr) override;

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
    struct StreamRec
    {
        Addr addr;
        std::uint32_t length;
    };

    /** Fetch a stream's lines through the PE cache hierarchy. */
    Cycles fetchStream(Addr addr, std::uint64_t keys);

    /** Charge a cmap-based set operation. */
    void cmapOp(streams::KeySpan build_side, Addr build_addr,
                streams::KeySpan probe_side, Addr probe_addr,
                Key bound);

    FlexMinerParams params_;
    sim::MemHierarchy mem_;
    std::vector<StreamRec> streams_;
    Cycles cycles_ = 0;
    Cycles memCycles_ = 0;
    Addr builtCmapAddr_ = 0; ///< cmap reuse across the subtree
};

} // namespace sc::baselines

#endif // SPARSECORE_BASELINES_FLEXMINER_HH
