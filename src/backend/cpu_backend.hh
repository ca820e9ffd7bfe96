/**
 * @file
 * CpuBackend: the CPU baseline (InHouseAutomine / TACO scalar code on
 * a commodity OOO core).
 *
 * Set operations execute as the Fig. 4(a) dual-pointer merge loop:
 * each step costs compare/advance ALU work, one or two data-dependent
 * branches resolved by a real predictor (the Fig. 9 "Mispred."
 * cycles), and element loads through the L1/L2/L3 hierarchy (the
 * "Cache" cycles). Nested intersection lowers to an explicit loop
 * with per-iteration control overhead.
 */

#ifndef SPARSECORE_BACKEND_CPU_BACKEND_HH
#define SPARSECORE_BACKEND_CPU_BACKEND_HH

#include <vector>

#include "backend/exec_backend.hh"
#include "sim/core_model.hh"

namespace sc::backend {

/** Tunable costs of the scalar merge loop. */
struct CpuCostParams
{
    /** ALU ops per merge-loop step (compare, select, increment). */
    unsigned opsPerStep = 3;
    /** ALU ops per produced output element (store + pointer). */
    unsigned opsPerOutput = 2;
    /** ALU ops per loop iteration of control code. */
    unsigned opsPerLoopIter = 4;
    /** Extra ops to set up a stream pointer/length pair. */
    unsigned opsPerStreamSetup = 2;
};

/** The CPU baseline backend. Final so the bytecode replay loop's
 *  per-backend instantiation devirtualizes every call. */
class CpuBackend final : public ExecBackend
{
  public:
    explicit CpuBackend(const sim::CoreParams &core = sim::CoreParams{},
                        const sim::MemParams &mem = sim::MemParams{},
                        const CpuCostParams &costs = CpuCostParams{});

    std::string name() const override { return "cpu"; }
    void begin() override;
    Cycles finish() override;
    sim::CycleBreakdown breakdown() const override;

    void scalarOps(std::uint64_t n) override { core_.executeOps(n); }
    void
    scalarBranch(std::uint64_t pc, bool taken) override
    {
        core_.executeBranch(pc, taken);
    }
    void scalarLoad(Addr addr) override { core_.load(addr); }

    BackendStream streamLoad(Addr key_addr, std::uint32_t length,
                             unsigned priority,
                             streams::KeySpan keys) override;
    BackendStream streamLoadKv(Addr key_addr, Addr val_addr,
                               std::uint32_t length, unsigned priority,
                               streams::KeySpan keys) override;
    void streamFree(BackendStream handle) override;

    BackendStream setOp(streams::SetOpKind kind, BackendStream a,
                        BackendStream b, streams::KeySpan ak,
                        streams::KeySpan bk, Key bound,
                        streams::KeySpan result, Addr out_addr) override;
    void setOpCount(streams::SetOpKind kind, BackendStream a,
                    BackendStream b, streams::KeySpan ak,
                    streams::KeySpan bk, Key bound,
                    std::uint64_t count) override;

    void valueIntersect(BackendStream a, BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Addr a_val_base, Addr b_val_base,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override;
    void denseValueIntersect(
        BackendStream a, BackendStream b, streams::KeySpan ak,
        streams::KeySpan bk, Addr a_val_base, Addr b_val_base,
        std::span<const std::uint32_t> match_a,
        std::span<const std::uint32_t> match_b) override;
    BackendStream valueMerge(BackendStream a, BackendStream b,
                             streams::KeySpan ak, streams::KeySpan bk,
                             Addr a_val_base, Addr b_val_base,
                             std::uint64_t result_len,
                             Addr out_addr) override;

    /** The modeled CPU is the scalar merge-loop baseline (Fig. 4a):
     *  no nested instruction, no wide comparators. Its timing comes
     *  from its own scalar merge walk, never the host kernel table,
     *  so host SIMD can't move a cycle here. */
    Caps caps() const override { return Caps{}; }

    void consumeStream(BackendStream handle) override;
    void iterateStream(BackendStream handle, std::uint64_t n,
                       unsigned ops_per_element) override;

    sim::CoreModel &core() { return core_; }

  private:
    struct StreamRec
    {
        Addr keyAddr = 0;
        Addr valAddr = 0;
        std::uint32_t length = 0;
    };

    /**
     * Run the scalar merge loop over two operands, charging per-step
     * costs; returns nothing (time accrues in the core model).
     */
    void mergeLoop(streams::SetOpKind kind, const StreamRec &ra,
                   const StreamRec &rb, streams::KeySpan ak,
                   streams::KeySpan bk, Key bound, Addr out_addr,
                   bool producing);

    /** mergeLoop's two-pointer walk for one kind, producing or
     *  counting: the fused loop (see cpu_backend.cc). */
    template <streams::SetOpKind Kind, bool Producing>
    void mergeWalk(const StreamRec &ra, const StreamRec &rb,
                   streams::KeySpan ak, streams::KeySpan bk, Key bound,
                   Addr out_addr);

    StreamRec &rec(BackendStream handle);

    sim::CoreModel core_;
    CpuCostParams costs_;
    std::vector<StreamRec> streams_;
};

} // namespace sc::backend

#endif // SPARSECORE_BACKEND_CPU_BACKEND_HH
