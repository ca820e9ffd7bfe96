#include "analysis/trace_check.hh"

#include "arch/config.hh"
#include "backend/exec_backend.hh"
#include "trace/bytecode.hh"

namespace sc::analysis {

StreamLifetimeChecker::Options
StreamLifetimeChecker::Options::forArch(
    const arch::SparseCoreConfig &config)
{
    Options options;
    options.maxLiveStreams = config.numStreamRegs;
    return options;
}

bool
StreamLifetimeChecker::ignored(std::uint64_t handle)
{
    return handle == backend::noStream ||
           handle == trace::noTraceStream ||
           handle == ~std::uint64_t{0};
}

void
StreamLifetimeChecker::emit(Rule rule, std::uint64_t handle,
                            const std::string &msg, Severity severity)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = severity;
    d.pc = seq_;
    d.sid = handle;
    d.message = msg;
    report_.diagnostics.push_back(std::move(d));
}

void
StreamLifetimeChecker::onDefine(std::uint64_t handle, bool kv,
                                const char *what)
{
    // seq_ is advanced on return so the diagnostics emitted here
    // carry this event's index.
    struct Advance
    {
        std::uint64_t &seq;
        ~Advance() { ++seq; }
    } advance{seq_};
    if (ignored(handle))
        return;
    const auto it = streams_.find(handle);
    if (it != streams_.end() && it->second != Lt::Freed)
        emit(Rule::RedefineLive, handle,
             strprintf("stream handle %llu redefined while live — %s",
                       static_cast<unsigned long long>(handle), what));
    if (it == streams_.end() || it->second == Lt::Freed)
        ++live_;
    streams_[handle] = kv ? Lt::Kv : Lt::Key;
    if (live_ > opt_.maxLiveStreams)
        emit(Rule::StreamOverflow, handle,
             strprintf("%u streams live, register file holds %u — %s",
                       live_, opt_.maxLiveStreams, what),
             opt_.overflowSeverity);
}

void
StreamLifetimeChecker::onFree(std::uint64_t handle, const char *what)
{
    struct Advance
    {
        std::uint64_t &seq;
        ~Advance() { ++seq; }
    } advance{seq_};
    if (ignored(handle))
        return;
    const auto it = streams_.find(handle);
    if (it == streams_.end()) {
        emit(Rule::UseBeforeRead, handle,
             strprintf("free of never-loaded stream handle %llu — %s",
                       static_cast<unsigned long long>(handle), what));
        return;
    }
    if (it->second == Lt::Freed) {
        emit(Rule::DoubleFree, handle,
             strprintf("stream handle %llu freed twice — %s",
                       static_cast<unsigned long long>(handle), what));
        return;
    }
    it->second = Lt::Freed;
    --live_;
}

void
StreamLifetimeChecker::onUse(std::uint64_t handle, bool need_kv,
                             const char *what)
{
    // Uses share their event's index with any sibling hook calls;
    // only onDefine/onFree/skipEvent advance the counter, so a setOp
    // event's two uses and one define all report the same pc.
    if (ignored(handle))
        return;
    const auto it = streams_.find(handle);
    if (it == streams_.end()) {
        emit(Rule::UseBeforeRead, handle,
             strprintf("stream handle %llu used before any load — %s",
                       static_cast<unsigned long long>(handle), what));
        return;
    }
    if (it->second == Lt::Freed) {
        emit(Rule::UseAfterFree, handle,
             strprintf("stream handle %llu used after free — %s",
                       static_cast<unsigned long long>(handle), what));
        return;
    }
    if (need_kv && it->second == Lt::Key)
        emit(Rule::ValueOpOnKeyStream, handle,
             strprintf("stream handle %llu is key-only (no kv load"
                       " ancestry) — %s",
                       static_cast<unsigned long long>(handle), what));
}

void
StreamLifetimeChecker::onEnd()
{
    for (const auto &[handle, lt] : streams_)
        if (lt != Lt::Freed)
            emit(Rule::StreamLeak, handle,
                 strprintf("stream handle %llu still live at the end"
                           " of the event stream (missing free)",
                           static_cast<unsigned long long>(handle)));
}

void
StreamLifetimeChecker::reset()
{
    streams_.clear();
    live_ = 0;
    seq_ = 0;
    report_ = VerifyReport{};
}

namespace {

/** walkBytecode handler making one instruction's checker calls. The
 *  `what` names are the ExecBackend hooks, so diagnostics read in
 *  the algorithm's own terms. */
struct LifetimeWalk
{
    StreamLifetimeChecker &chk;

    void scalarOps(std::uint64_t, std::uint32_t n) { chk.skipEvent(n); }
    void scalarBranch(std::uint64_t, bool) { chk.skipEvent(); }
    void scalarLoad(Addr) { chk.skipEvent(); }
    void
    streamLoad(trace::TraceStream res, Addr, std::uint64_t,
               std::uint8_t, trace::SpanRef)
    {
        chk.onDefine(res, /*kv=*/false, "streamLoad");
    }
    void
    streamLoadKv(trace::TraceStream res, Addr, Addr, std::uint64_t,
                 std::uint8_t, trace::SpanRef)
    {
        chk.onDefine(res, /*kv=*/true, "streamLoadKv");
    }
    void streamFree(trace::TraceStream a) { chk.onFree(a, "streamFree"); }
    void
    setOp(trace::TraceStream res, std::uint8_t, trace::TraceStream a,
          trace::TraceStream b, trace::SpanRef, trace::SpanRef, Key,
          trace::SpanRef, Addr)
    {
        chk.onUse(a, false, "setOp");
        chk.onUse(b, false, "setOp");
        chk.onDefine(res, /*kv=*/false, "setOp");
    }
    void
    setOpCount(std::uint8_t, trace::TraceStream a, trace::TraceStream b,
               trace::SpanRef, trace::SpanRef, Key, std::uint64_t)
    {
        chk.onUse(a, false, "setOpCount");
        chk.onUse(b, false, "setOpCount");
        chk.skipEvent();
    }
    void
    valueIntersect(bool dense, trace::TraceStream a, trace::TraceStream b,
                   trace::SpanRef, trace::SpanRef, Addr, Addr,
                   trace::SpanRef, trace::SpanRef)
    {
        const char *what =
            dense ? "denseValueIntersect" : "valueIntersect";
        chk.onUse(a, true, what);
        chk.onUse(b, true, what);
        chk.skipEvent();
    }
    void
    valueMerge(trace::TraceStream res, trace::TraceStream a,
               trace::TraceStream b, trace::SpanRef, trace::SpanRef,
               Addr, Addr, std::uint64_t, Addr)
    {
        chk.onUse(a, true, "valueMerge");
        chk.onUse(b, true, "valueMerge");
        chk.onDefine(res, /*kv=*/true, "valueMerge");
    }
    void
    nestedGroup(trace::TraceStream a, trace::SpanRef, std::uint64_t,
                std::uint32_t)
    {
        chk.onUse(a, false, "nestedGroup");
        chk.skipEvent();
    }
    void
    consumeStream(trace::TraceStream a)
    {
        chk.onUse(a, false, "consumeStream");
        chk.skipEvent();
    }
    void
    iterateStream(trace::TraceStream a, std::uint64_t, std::uint8_t)
    {
        chk.onUse(a, false, "iterateStream");
        chk.skipEvent();
    }
};

} // namespace

VerifyReport
verifyBytecode(const trace::BytecodeProgram &program,
               StreamLifetimeChecker::Options options)
{
    StreamLifetimeChecker chk(options);
    LifetimeWalk walk{chk};
    trace::walkBytecode(program, walk);
    chk.onEnd();
    return chk.report();
}

} // namespace sc::analysis
