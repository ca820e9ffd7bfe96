/**
 * @file
 * SparseCoreBackend: adapts the ExecBackend event stream onto the
 * cycle-level SparseCore engine (src/arch).
 */

#ifndef SPARSECORE_BACKEND_SPARSECORE_BACKEND_HH
#define SPARSECORE_BACKEND_SPARSECORE_BACKEND_HH

#include <vector>

#include "arch/engine.hh"
#include "backend/exec_backend.hh"

namespace sc::backend {

/** The SparseCore substrate. Final so the bytecode replay loop's
 *  per-backend instantiation devirtualizes every call. */
class SparseCoreBackend final : public ExecBackend
{
  public:
    explicit SparseCoreBackend(
        const arch::SparseCoreConfig &config = arch::SparseCoreConfig{});

    std::string name() const override { return "sparsecore"; }
    void begin() override;
    Cycles finish() override;
    sim::CycleBreakdown breakdown() const override;

    void scalarOps(std::uint64_t n) override { engine_.scalarOps(n); }
    void
    scalarBranch(std::uint64_t pc, bool taken) override
    {
        engine_.scalarBranch(pc, taken);
    }
    void scalarLoad(Addr addr) override { engine_.scalarLoad(addr); }

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
    BackendStream valueMerge(BackendStream a, BackendStream b,
                             streams::KeySpan ak, streams::KeySpan bk,
                             Addr a_val_base, Addr b_val_base,
                             std::uint64_t result_len,
                             Addr out_addr) override;

    Caps
    caps() const override
    {
        Caps c;
        c.nested = engine_.config().nestedIntersection;
        return c;
    }
    void nestedIntersect(BackendStream s, streams::KeySpan s_keys,
                         const std::vector<NestedItem> &elems) override;

    void consumeStream(BackendStream handle) override;
    void iterateStream(BackendStream handle, std::uint64_t n,
                       unsigned ops_per_element) override;

    arch::Engine &engine() { return engine_; }
    const arch::Engine &engine() const { return engine_; }

  private:
    arch::Engine engine_;
    // Scratch buffers reused across calls.
    std::vector<Addr> valueAddrsA_;
    std::vector<Addr> valueAddrsB_;
    std::vector<arch::NestedElem> nestedElems_;
};

} // namespace sc::backend

#endif // SPARSECORE_BACKEND_SPARSECORE_BACKEND_HH
