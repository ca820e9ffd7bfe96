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

using trace::Event;
using trace::EventKind;

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

/** One event's checker calls — the shared core of the event-list and
 *  bytecode walks, so both forms check one contract. */
void
checkEvent(StreamLifetimeChecker &chk, const Event &e)
{
    const char *what = eventKindName(e.kind);
    switch (e.kind) {
      case EventKind::StreamLoad:
        chk.onDefine(e.result, /*kv=*/false, what);
        break;
      case EventKind::StreamLoadKv:
        chk.onDefine(e.result, /*kv=*/true, what);
        break;
      case EventKind::StreamFree:
        chk.onFree(e.a, what);
        break;
      case EventKind::SetOp:
        chk.onUse(e.a, false, what);
        chk.onUse(e.b, false, what);
        chk.onDefine(e.result, /*kv=*/false, what);
        break;
      case EventKind::SetOpCount:
        chk.onUse(e.a, false, what);
        chk.onUse(e.b, false, what);
        chk.skipEvent();
        break;
      case EventKind::ValueIntersect:
      case EventKind::DenseValueIntersect:
        chk.onUse(e.a, true, what);
        chk.onUse(e.b, true, what);
        chk.skipEvent();
        break;
      case EventKind::ValueMerge:
        chk.onUse(e.a, true, what);
        chk.onUse(e.b, true, what);
        chk.onDefine(e.result, /*kv=*/true, what);
        break;
      case EventKind::NestedGroup:
      case EventKind::ConsumeStream:
      case EventKind::IterateStream:
        chk.onUse(e.a, false, what);
        chk.skipEvent();
        break;
      case EventKind::ScalarOps:
      case EventKind::ScalarBranch:
      case EventKind::ScalarLoad:
      case EventKind::NumKinds:
        chk.skipEvent();
        break;
    }
}

} // namespace

VerifyReport
verifyEvents(const std::vector<Event> &events,
             StreamLifetimeChecker::Options options)
{
    StreamLifetimeChecker chk(options);
    for (const Event &e : events)
        checkEvent(chk, e);
    chk.onEnd();
    return chk.report();
}

VerifyReport
verifyTrace(const trace::Trace &trace,
            StreamLifetimeChecker::Options options)
{
    return verifyEvents(trace.events(), options);
}

VerifyReport
verifyBytecode(const trace::BytecodeProgram &program,
               StreamLifetimeChecker::Options options)
{
    StreamLifetimeChecker chk(options);
    program.forEachEvent([&](const Event &e, std::uint32_t repeat) {
        // Only fused scalar runs repeat, and those check nothing:
        // advance the event index past the rest of the run.
        checkEvent(chk, e);
        chk.skipEvent(repeat - 1);
    });
    chk.onEnd();
    return chk.report();
}

} // namespace sc::analysis
