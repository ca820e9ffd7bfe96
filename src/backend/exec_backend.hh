/**
 * @file
 * ExecBackend: the substrate interface that algorithm code (GPM plan
 * executor, tensor kernels) drives.
 *
 * Algorithms execute functionally exactly once per backend and report
 * every dynamic event — stream loads/frees, set operations with their
 * operand spans, value computations, nested intersections, scalar
 * loop work. Each backend turns the event stream into time:
 *  - FunctionalBackend: no time, structural statistics only,
 *  - CpuBackend: the scalar merge-loop baseline (Fig. 4a) on the OOO
 *    core model (InHouseAutomine on CPU),
 *  - SparseCoreBackend: the stream-ISA engine (src/arch),
 *  - FlexMinerBackend (src/baselines): the cmap-based accelerator.
 *
 * This mirrors the paper's methodology: the same algorithm runs on
 * every substrate; only the execution model differs.
 */

#ifndef SPARSECORE_BACKEND_EXEC_BACKEND_HH
#define SPARSECORE_BACKEND_EXEC_BACKEND_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/core_model.hh"
#include "streams/set_ops.hh"

namespace sc::backend {

/** Opaque per-backend stream identifier. */
using BackendStream = std::uint32_t;
constexpr BackendStream noStream = ~BackendStream{0};

/** One nested-intersection element (backend-neutral mirror of
 *  arch::NestedElem). */
struct NestedItem
{
    Addr infoAddr;  ///< CSR vertex-array entry address
    Addr keyAddr;   ///< nested edge list base address
    streams::KeySpan nested; ///< nested edge list keys (pre-bounded)
    Key bound;      ///< intersection upper bound (element value)
    std::uint64_t count = 0; ///< functional intersection count
};

/** The substrate interface. */
class ExecBackend
{
  public:
    virtual ~ExecBackend() = default;

    virtual std::string name() const = 0;

    /** Reset per-run state before an algorithm starts. A timing
     *  backend returns to its constructed, cold state (empty caches,
     *  untrained predictor), so a reused backend times a run exactly
     *  as a fresh one does. */
    virtual void begin() {}
    /** Drain outstanding work; returns total cycles. */
    virtual Cycles finish() = 0;
    /** Cycle breakdown in the Fig. 9/10 categories. */
    virtual sim::CycleBreakdown breakdown() const = 0;

    // ---------------- scalar side ----------------
    virtual void scalarOps(std::uint64_t n) { (void)n; }
    virtual void
    scalarBranch(std::uint64_t pc, bool taken)
    {
        (void)pc;
        (void)taken;
    }
    virtual void scalarLoad(Addr addr) { (void)addr; }

    // ---------------- stream lifecycle ----------------
    /** S_READ equivalent. @param keys the stream's key data */
    virtual BackendStream streamLoad(Addr key_addr, std::uint32_t length,
                                     unsigned priority,
                                     streams::KeySpan keys) = 0;
    /** S_VREAD equivalent. */
    virtual BackendStream streamLoadKv(Addr key_addr, Addr val_addr,
                                       std::uint32_t length,
                                       unsigned priority,
                                       streams::KeySpan keys) = 0;
    /** S_FREE equivalent. */
    virtual void streamFree(BackendStream handle) = 0;

    // ---------------- set operations ----------------
    /**
     * S_INTER/S_SUB/S_MERGE producing a stream.
     * @param result the functionally computed output keys
     * @param out_addr synthetic address of the output buffer
     */
    virtual BackendStream setOp(streams::SetOpKind kind, BackendStream a,
                                BackendStream b, streams::KeySpan ak,
                                streams::KeySpan bk, Key bound,
                                streams::KeySpan result,
                                Addr out_addr) = 0;

    /** Counting variant (.C). @param count the functional result */
    virtual void setOpCount(streams::SetOpKind kind, BackendStream a,
                            BackendStream b, streams::KeySpan ak,
                            streams::KeySpan bk, Key bound,
                            std::uint64_t count) = 0;

    // ---------------- value operations ----------------
    /** S_VINTER: matched positions drive value-address generation. */
    virtual void
    valueIntersect(BackendStream a, BackendStream b, streams::KeySpan ak,
                   streams::KeySpan bk, Addr a_val_base, Addr b_val_base,
                   std::span<const std::uint32_t> match_a,
                   std::span<const std::uint32_t> match_b) = 0;

    /**
     * S_VINTER where operand B is a DENSE vector viewed as a
     * (key,value) stream (TTV). The default forwards to
     * valueIntersect; the CPU backend overrides it with TACO's
     * direct-gather loop (a CPU never merge-walks a dense operand).
     */
    virtual void
    denseValueIntersect(BackendStream a, BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Addr a_val_base, Addr b_val_base,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b)
    {
        valueIntersect(a, b, ak, bk, a_val_base, b_val_base, match_a,
                       match_b);
    }

    /** S_VMERGE producing a (key,value) stream. */
    virtual BackendStream valueMerge(BackendStream a, BackendStream b,
                                     streams::KeySpan ak,
                                     streams::KeySpan bk, Addr a_val_base,
                                     Addr b_val_base,
                                     std::uint64_t result_len,
                                     Addr out_addr) = 0;

    // ---------------- capabilities ----------------
    /**
     * Substrate capability flags. Every backend must implement the
     * (key,value) operations (they are pure virtual); nested
     * intersection is opt-in.
     */
    struct Caps
    {
        bool nested = false; ///< implements S_NESTINTER natively
    };

    virtual Caps caps() const { return Caps{}; }

    // ---------------- nested intersection ----------------
    /**
     * S_NESTINTER over stream s. The default implementation lowers
     * the group to the explicit per-element loop (iterate + load +
     * setOpCount + free + accumulate), so algorithm code and trace
     * replay issue one uniform call and the substrate decides the
     * execution shape.
     */
    virtual void nestedIntersect(BackendStream s, streams::KeySpan s_keys,
                                 const std::vector<NestedItem> &elems);

    // ---------------- control consumption ----------------
    /** Core consumes the stream's result (control dependence). */
    virtual void consumeStream(BackendStream handle) { (void)handle; }
    /** Core iterates n elements of a stream (loop body overhead). */
    virtual void
    iterateStream(BackendStream handle, std::uint64_t n,
                  unsigned ops_per_element = 2)
    {
        (void)handle;
        (void)n;
        (void)ops_per_element;
    }
};

} // namespace sc::backend

#endif // SPARSECORE_BACKEND_EXEC_BACKEND_HH
