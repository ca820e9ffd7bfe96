/**
 * @file
 * The execution-event trace IR: a compact, owned recording of every
 * dynamic event an algorithm reports to an ExecBackend (stream
 * loads/frees, set operations, value operations, nested-intersection
 * groups, scalar batches).
 *
 * The repo's methodology runs one algorithm on many substrates; a
 * Trace decouples "what the algorithm did" (captured once by
 * TraceRecorder) from "what it costs" (measured by compiling the
 * trace to SCBC, trace/compile.hh, and replaying that program onto
 * any backend). Key data referenced by events is interned into an
 * arena the Trace owns, so events outlive the executor's per-level
 * scratch buffers and a trace can be verified, summarized and
 * compiled long after the capture run returned. The trace lives only
 * in memory: the one on-disk image is the compiled program's
 * (BytecodeProgram::serialize).
 *
 * Span payloads are deduplicated by content: a neighbor list loaded
 * at every recursion level is stored once, which keeps trace arenas
 * near the size of the underlying graph rather than the size of the
 * dynamic execution.
 */

#ifndef SPARSECORE_TRACE_TRACE_HH
#define SPARSECORE_TRACE_TRACE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "streams/set_ops.hh"

namespace sc::trace {

/** Reified mirror of the ExecBackend vtable. */
enum class EventKind : std::uint8_t
{
    ScalarOps,           ///< scalarOps(n)
    ScalarBranch,        ///< scalarBranch(pc, taken)
    ScalarLoad,          ///< scalarLoad(addr)
    StreamLoad,          ///< streamLoad -> handle
    StreamLoadKv,        ///< streamLoadKv -> handle
    StreamFree,          ///< streamFree(handle)
    SetOp,               ///< setOp -> handle
    SetOpCount,          ///< setOpCount (.C variant)
    ValueIntersect,      ///< valueIntersect
    DenseValueIntersect, ///< denseValueIntersect (dense operand B)
    ValueMerge,          ///< valueMerge -> handle
    NestedGroup,         ///< nestedIntersect over a candidate set
    ConsumeStream,       ///< consumeStream(handle)
    IterateStream,       ///< iterateStream(handle, n, ops)
    NumKinds
};

const char *eventKindName(EventKind kind);

/** Reference to interned key data: [off, off+len) in the arena. */
struct SpanRef
{
    std::uint64_t off = 0;
    std::uint32_t len = 0;
};

/** One nested-intersection element, with its functional count. */
struct NestedEntry
{
    Addr infoAddr = 0; ///< CSR vertex-array entry address
    Addr keyAddr = 0;  ///< nested edge list base address
    SpanRef nested;    ///< nested edge list keys
    Key bound = noBound;
    std::uint64_t count = 0; ///< functional intersection count
};

/** Trace-local stream handle (dense, assigned in creation order). */
using TraceStream = std::uint32_t;
constexpr TraceStream noTraceStream = ~TraceStream{0};

/**
 * One captured event. A fixed-size record; per-kind field use:
 *
 *  kind                 fields
 *  ScalarOps            n
 *  ScalarBranch         addr0=pc, aux=taken
 *  ScalarLoad           addr0
 *  StreamLoad           result, addr0=key, n=length, aux=prio, s0=keys
 *  StreamLoadKv         + addr1=val
 *  StreamFree           a
 *  SetOp                result, aux=SetOpKind, a, b, s0=ak, s1=bk,
 *                       bound, s2=result keys, addr0=out
 *  SetOpCount           aux=SetOpKind, a, b, s0=ak, s1=bk, bound,
 *                       n=count
 *  ValueIntersect       a, b, s0=ak, s1=bk, addr0/addr1=val bases,
 *                       s2=match_a, s3=match_b
 *  DenseValueIntersect  as ValueIntersect
 *  ValueMerge           result, a, b, s0=ak, s1=bk, addr0/addr1=val
 *                       bases, n=result_len, addr2=out
 *  NestedGroup          a=set handle, s0=set keys,
 *                       n=index into nested entries, aux2=entry count
 *  ConsumeStream        a
 *  IterateStream        a, n, aux=ops_per_element
 */
struct Event
{
    EventKind kind = EventKind::ScalarOps;
    std::uint8_t aux = 0;
    std::uint32_t aux2 = 0;
    TraceStream a = noTraceStream;
    TraceStream b = noTraceStream;
    TraceStream result = noTraceStream;
    Key bound = noBound;
    Addr addr0 = 0;
    Addr addr1 = 0;
    Addr addr2 = 0;
    std::uint64_t n = 0;
    SpanRef s0, s1, s2, s3;
};

/** The owned trace: events + interned key arena + nested entries. */
class Trace
{
  public:
    Trace() = default;

    // ---------------- capture side ----------------
    void clear();
    /** Intern a span's content (content-deduplicated). */
    SpanRef intern(streams::KeySpan keys);
    Event &
    append(const Event &event)
    {
        events_.push_back(event);
        return events_.back();
    }
    std::uint32_t
    appendNested(const std::vector<NestedEntry> &entries)
    {
        const auto off = static_cast<std::uint32_t>(nested_.size());
        nested_.insert(nested_.end(), entries.begin(), entries.end());
        return off;
    }
    void setHandleCount(TraceStream n) { handleCount_ = n; }

    // ---------------- replay side ----------------
    const std::vector<Event> &events() const { return events_; }
    streams::KeySpan
    span(const SpanRef &ref) const
    {
        return {arena_.data() + ref.off, ref.len};
    }
    const NestedEntry &nestedEntry(std::size_t i) const
    {
        return nested_[i];
    }
    /** Whole interned arena (the bytecode compiler copies it). */
    streams::KeySpan
    arenaSpan() const
    {
        return {arena_.data(), arena_.size()};
    }
    const std::vector<NestedEntry> &nestedEntries() const
    {
        return nested_;
    }
    /** Stream handles the capture run created (map size for replay). */
    TraceStream handleCount() const { return handleCount_; }

    // ---------------- statistics ----------------
    std::size_t numEvents() const { return events_.size(); }
    std::size_t arenaKeys() const { return arena_.size(); }
    std::size_t arenaBytes() const { return arena_.size() * sizeof(Key); }
    /** Approximate total owned bytes (events + arena + entries). */
    std::size_t memoryBytes() const;

  private:
    std::vector<Key> arena_;
    std::vector<Event> events_;
    std::vector<NestedEntry> nested_;
    TraceStream handleCount_ = 0;
    /** Content hash -> candidate arena refs (interning index). */
    std::unordered_map<std::uint64_t, std::vector<SpanRef>> interned_;
};

} // namespace sc::trace

#endif // SPARSECORE_TRACE_TRACE_HH
