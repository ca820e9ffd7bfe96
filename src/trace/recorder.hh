/**
 * @file
 * TraceRecorder: an ExecBackend that captures the execution-event
 * stream into a Trace instead of timing it. Timeless like
 * FunctionalBackend (finish() returns 0); the captured trace replays
 * onto any substrate via trace::replay().
 */

#ifndef SPARSECORE_TRACE_RECORDER_HH
#define SPARSECORE_TRACE_RECORDER_HH

#include "backend/exec_backend.hh"
#include "trace/trace.hh"

namespace sc::trace {

/** The capturing backend. */
class TraceRecorder : public backend::ExecBackend
{
  public:
    TraceRecorder() = default;

    std::string name() const override { return "trace-recorder"; }
    void begin() override;
    Cycles finish() override;
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
     * The recorder captures the nested group as a single event; the
     * replay driver re-dispatches it through the target backend's
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

    /** The captured trace (valid after finish(), or mid-capture). */
    const Trace &trace() const { return trace_; }
    /** Move the trace out (the recorder is then empty). */
    Trace takeTrace();

  private:
    backend::BackendStream nextHandle() { return next_++; }
    Event &push(EventKind kind);
    void recordValueIntersect(EventKind kind, backend::BackendStream a,
                              backend::BackendStream b,
                              streams::KeySpan ak, streams::KeySpan bk,
                              Addr a_val_base, Addr b_val_base,
                              std::span<const std::uint32_t> match_a,
                              std::span<const std::uint32_t> match_b);

    Trace trace_;
    backend::BackendStream next_ = 0;
};

} // namespace sc::trace

#endif // SPARSECORE_TRACE_RECORDER_HH
