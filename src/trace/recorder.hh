/**
 * @file
 * TraceRecorder: an ExecBackend that captures the call sequence an
 * algorithm issues as an SCBC program (trace/bytecode.hh), encoding
 * each call as it arrives instead of timing it. Timeless like
 * FunctionalBackend (finish() returns 0); takeTrace() hands over the
 * program, which replays onto any substrate via
 * trace::replayCompiled().
 */

#ifndef SPARSECORE_TRACE_RECORDER_HH
#define SPARSECORE_TRACE_RECORDER_HH

#include <unordered_map>
#include <vector>

#include "backend/exec_backend.hh"
#include "trace/bytecode.hh"

namespace sc::trace {

/** The capturing backend. */
class TraceRecorder : public backend::ExecBackend
{
  public:
    TraceRecorder() = default;

    std::string name() const override { return "trace-recorder"; }
    void begin() override;
    Cycles finish() override { return 0; }
    sim::CycleBreakdown breakdown() const override { return {}; }

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
    void denseValueIntersect(
        backend::BackendStream a, backend::BackendStream b,
        streams::KeySpan ak, streams::KeySpan bk, Addr a_val_base,
        Addr b_val_base, std::span<const std::uint32_t> match_a,
        std::span<const std::uint32_t> match_b) override;
    backend::BackendStream valueMerge(backend::BackendStream a,
                                      backend::BackendStream b,
                                      streams::KeySpan ak,
                                      streams::KeySpan bk,
                                      Addr a_val_base, Addr b_val_base,
                                      std::uint64_t result_len,
                                      Addr out_addr) override;

    /**
     * The recorder captures the nested group as a single instruction;
     * the replay driver re-dispatches it through the target backend's
     * own nestedIntersect (which lowers it when unsupported).
     */
    backend::ExecBackend::Caps
    caps() const override
    {
        backend::ExecBackend::Caps c;
        c.nested = true;
        return c;
    }
    void nestedIntersect(
        backend::BackendStream s, streams::KeySpan s_keys,
        const std::vector<backend::NestedItem> &elems) override;

    void consumeStream(backend::BackendStream handle) override;
    void iterateStream(backend::BackendStream handle, std::uint64_t n,
                       unsigned ops_per_element) override;

    /** Flush the pending scalar run, validate the program and move it
     *  out (the recorder is then empty). */
    BytecodeProgram takeTrace();

  private:
    /** A u64-class or u32 operand staged for the next instruction. */
    struct Operand
    {
        std::uint64_t value = 0;
        bool u64Class = false;
    };

    // Operand staging, in the order walkBytecode reads them; stream
    // handles are u32 operands.
    void u64f(std::uint64_t value) { fields_[nfields_++] = {value, true}; }
    void u32f(std::uint32_t value) { fields_[nfields_++] = {value, false}; }
    /** Zigzag delta against the running address register (the
     *  decoder keeps the twin register; wrapping u64 arithmetic). */
    void
    addrf(std::uint64_t addr)
    {
        u64f(zigzagEncode(addr - lastAddr_));
        lastAddr_ = addr;
    }
    void
    spanf(streams::KeySpan keys)
    {
        const SpanRef ref = intern(keys);
        u64f(ref.off);
        u32f(ref.len);
    }
    /** Emit header + staged operands as one instruction. */
    void emit(Op op, std::uint8_t aux = 0);
    /** emit() for a stream-creating instruction: its result is the
     *  next creation-order handle, which the decoder infers. */
    backend::BackendStream emitCreating(Op op, std::uint8_t aux);
    /** Every hook but scalarOps calls this before staging operands:
     *  the pending fused run goes out first. */
    void flushRun();
    /** Content-interned arena reference for a span. */
    SpanRef intern(streams::KeySpan keys);
    void recordValueIntersect(Op op, backend::BackendStream a,
                              backend::BackendStream b,
                              streams::KeySpan ak, streams::KeySpan bk,
                              Addr a_val_base, Addr b_val_base,
                              std::span<const std::uint32_t> match_a,
                              std::span<const std::uint32_t> match_b);

    BytecodeProgram program_;
    /** Content hash -> candidate arena refs (interning index). */
    std::unordered_map<std::uint64_t, std::vector<SpanRef>> interned_;
    Operand fields_[16];
    unsigned nfields_ = 0;
    std::uint64_t lastAddr_ = 0;
    /** Pending run of identical scalarOps(runN_) calls. */
    std::uint64_t runN_ = 0;
    std::uint32_t runCount_ = 0;
    backend::BackendStream next_ = 0;
};

} // namespace sc::trace

#endif // SPARSECORE_TRACE_RECORDER_HH
