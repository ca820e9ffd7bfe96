#include "trace/replay.hh"

#include "analysis/trace_check.hh"
#include "backend/cpu_backend.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/logging.hh"

namespace sc::trace {

using backend::BackendStream;

namespace {

/** Translate a trace handle through the replay map. */
BackendStream
mapHandle(const std::vector<BackendStream> &map, TraceStream h)
{
    if (h == noTraceStream)
        return backend::noStream;
    if (h >= map.size())
        panic("trace replay: handle %u out of range (%zu created)",
              h, map.size());
    return map[h];
}

/**
 * walkBytecode handler issuing backend calls. Instantiated once per
 * concrete backend type (B = CpuBackend etc.), so every call below is
 * direct and inlinable; B = ExecBackend is the generic fallback. The
 * issued call sequence is identical to replayEvents — a ScalarOpsRun
 * re-issues one scalarOps(n) per source event, preserving the
 * per-call ceil(n/issueWidth) cost-model semantics.
 *
 * compileTrace/deserialize validated every handle, span and nested
 * group, so the hot path maps handles without bounds branches.
 */
template <typename B>
struct ReplayLoop
{
    B &backend;
    const BytecodeProgram &bc;
    std::vector<BackendStream> map;
    std::vector<backend::NestedItem> items; // reused across groups

    ReplayLoop(B &b, const BytecodeProgram &p)
        : backend(b), bc(p),
          map(p.handleCount(), backend::noStream)
    {
    }

    BackendStream
    get(TraceStream h) const
    {
        return h == noTraceStream ? backend::noStream : map[h];
    }
    void
    set(TraceStream h, BackendStream v)
    {
        if (h != noTraceStream)
            map[h] = v;
    }

    void
    scalarOps(std::uint64_t n, std::uint32_t repeat)
    {
        for (std::uint32_t i = 0; i < repeat; ++i)
            backend.scalarOps(n);
    }
    void
    scalarBranch(std::uint64_t pc, bool taken)
    {
        backend.scalarBranch(pc, taken);
    }
    void scalarLoad(Addr addr) { backend.scalarLoad(addr); }
    void
    streamLoad(TraceStream res, Addr addr, std::uint64_t len,
               std::uint8_t prio, SpanRef s0)
    {
        set(res, backend.streamLoad(addr,
                                    static_cast<std::uint32_t>(len),
                                    prio, bc.span(s0)));
    }
    void
    streamLoadKv(TraceStream res, Addr key_addr, Addr val_addr,
                 std::uint64_t len, std::uint8_t prio, SpanRef s0)
    {
        set(res, backend.streamLoadKv(key_addr, val_addr,
                                      static_cast<std::uint32_t>(len),
                                      prio, bc.span(s0)));
    }
    void streamFree(TraceStream a) { backend.streamFree(get(a)); }
    void
    setOp(TraceStream res, std::uint8_t kind, TraceStream a,
          TraceStream b, SpanRef s0, SpanRef s1, Key bound, SpanRef s2,
          Addr out_addr)
    {
        set(res, backend.setOp(static_cast<streams::SetOpKind>(kind),
                               get(a), get(b), bc.span(s0),
                               bc.span(s1), bound, bc.span(s2),
                               out_addr));
    }
    void
    setOpCount(std::uint8_t kind, TraceStream a, TraceStream b,
               SpanRef s0, SpanRef s1, Key bound, std::uint64_t count)
    {
        backend.setOpCount(static_cast<streams::SetOpKind>(kind),
                           get(a), get(b), bc.span(s0), bc.span(s1),
                           bound, count);
    }
    void
    valueIntersect(bool dense, TraceStream a, TraceStream b, SpanRef s0,
                   SpanRef s1, Addr a_val, Addr b_val, SpanRef s2,
                   SpanRef s3)
    {
        if (dense)
            backend.denseValueIntersect(get(a), get(b), bc.span(s0),
                                        bc.span(s1), a_val, b_val,
                                        bc.span(s2), bc.span(s3));
        else
            backend.valueIntersect(get(a), get(b), bc.span(s0),
                                   bc.span(s1), a_val, b_val,
                                   bc.span(s2), bc.span(s3));
    }
    void
    valueMerge(TraceStream res, TraceStream a, TraceStream b, SpanRef s0,
               SpanRef s1, Addr a_val, Addr b_val, std::uint64_t n,
               Addr out_addr)
    {
        set(res, backend.valueMerge(get(a), get(b), bc.span(s0),
                                    bc.span(s1), a_val, b_val, n,
                                    out_addr));
    }
    void
    nestedGroup(TraceStream a, SpanRef s0, std::uint64_t index,
                std::uint32_t count)
    {
        items.clear();
        items.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const NestedEntry &entry = bc.nestedEntry(index + i);
            items.push_back({entry.infoAddr, entry.keyAddr,
                             bc.span(entry.nested), entry.bound,
                             entry.count});
        }
        backend.nestedIntersect(get(a), bc.span(s0), items);
    }
    void consumeStream(TraceStream a) { backend.consumeStream(get(a)); }
    void
    iterateStream(TraceStream a, std::uint64_t n, std::uint8_t ops)
    {
        backend.iterateStream(get(a), n, ops);
    }
};

template <typename B>
void
runBytecode(const BytecodeProgram &bc, B &backend)
{
    ReplayLoop<B> loop(backend, bc);
    walkBytecode(bc, loop);
}

} // namespace

ReplayResult
replayCompiled(const BytecodeProgram &program,
               backend::ExecBackend &backend,
               std::optional<bool> verify)
{
    if (verify.value_or(analysis::verifyByDefault())) {
        const analysis::VerifyReport report =
            analysis::verifyBytecode(program);
        if (report.hasErrors())
            throw analysis::VerifyError(report.format());
    }

    backend.begin();

    // One devirtualized loop instantiation per concrete backend: the
    // concrete classes are final, so B's calls resolve statically and
    // inline into the decode switch. The functional substrate goes
    // further — it is stateless across events, so the compile-time
    // EventProfile aggregate replaces the walk entirely (run batching
    // taken to its limit; bit-identical stats by construction since
    // every hook is additive and order-independent). Everything else
    // (baseline accelerators, bench probes) takes the generic loop,
    // which still skips Event materialization.
    if (auto *cpu = dynamic_cast<backend::CpuBackend *>(&backend))
        runBytecode(program, *cpu);
    else if (auto *sc =
                 dynamic_cast<backend::SparseCoreBackend *>(&backend))
        runBytecode(program, *sc);
    else if (auto *fn =
                 dynamic_cast<backend::FunctionalBackend *>(&backend))
        fn->applyProfile(program.profile());
    else
        runBytecode(program, backend);

    ReplayResult out;
    out.cycles = backend.finish();
    out.breakdown = backend.breakdown();
    return out;
}

ReplayResult
replayEvents(const Trace &trace, backend::ExecBackend &backend)
{
    backend.begin();

    // Trace handles are dense and assigned in creation order; the map
    // fills in the same order during replay, so backend-side handle
    // numbering matches the original capture run exactly.
    std::vector<BackendStream> map(trace.handleCount(),
                                   backend::noStream);

    for (const Event &e : trace.events()) {
        switch (e.kind) {
        case EventKind::ScalarOps:
            backend.scalarOps(e.n);
            break;
        case EventKind::ScalarBranch:
            backend.scalarBranch(e.addr0, e.aux != 0);
            break;
        case EventKind::ScalarLoad:
            backend.scalarLoad(e.addr0);
            break;
        case EventKind::StreamLoad:
            map[e.result] = backend.streamLoad(
                e.addr0, static_cast<std::uint32_t>(e.n), e.aux,
                trace.span(e.s0));
            break;
        case EventKind::StreamLoadKv:
            map[e.result] = backend.streamLoadKv(
                e.addr0, e.addr1, static_cast<std::uint32_t>(e.n),
                e.aux, trace.span(e.s0));
            break;
        case EventKind::StreamFree:
            backend.streamFree(mapHandle(map, e.a));
            break;
        case EventKind::SetOp:
            map[e.result] = backend.setOp(
                static_cast<streams::SetOpKind>(e.aux),
                mapHandle(map, e.a), mapHandle(map, e.b),
                trace.span(e.s0), trace.span(e.s1), e.bound,
                trace.span(e.s2), e.addr0);
            break;
        case EventKind::SetOpCount:
            backend.setOpCount(static_cast<streams::SetOpKind>(e.aux),
                               mapHandle(map, e.a), mapHandle(map, e.b),
                               trace.span(e.s0), trace.span(e.s1),
                               e.bound, e.n);
            break;
        case EventKind::ValueIntersect:
            backend.valueIntersect(
                mapHandle(map, e.a), mapHandle(map, e.b),
                trace.span(e.s0), trace.span(e.s1), e.addr0, e.addr1,
                trace.span(e.s2), trace.span(e.s3));
            break;
        case EventKind::DenseValueIntersect:
            backend.denseValueIntersect(
                mapHandle(map, e.a), mapHandle(map, e.b),
                trace.span(e.s0), trace.span(e.s1), e.addr0, e.addr1,
                trace.span(e.s2), trace.span(e.s3));
            break;
        case EventKind::ValueMerge:
            map[e.result] = backend.valueMerge(
                mapHandle(map, e.a), mapHandle(map, e.b),
                trace.span(e.s0), trace.span(e.s1), e.addr0, e.addr1,
                e.n, e.addr2);
            break;
        case EventKind::NestedGroup: {
            std::vector<backend::NestedItem> items;
            items.reserve(e.aux2);
            for (std::uint32_t i = 0; i < e.aux2; ++i) {
                const NestedEntry &entry = trace.nestedEntry(e.n + i);
                items.push_back({entry.infoAddr, entry.keyAddr,
                                 trace.span(entry.nested), entry.bound,
                                 entry.count});
            }
            // Virtual dispatch lowers the group to the explicit loop
            // on substrates without S_NESTINTER.
            backend.nestedIntersect(mapHandle(map, e.a),
                                    trace.span(e.s0), items);
            break;
        }
        case EventKind::ConsumeStream:
            backend.consumeStream(mapHandle(map, e.a));
            break;
        case EventKind::IterateStream:
            backend.iterateStream(mapHandle(map, e.a), e.n, e.aux);
            break;
        case EventKind::NumKinds:
            panic("trace replay: corrupt event kind");
        }
    }

    ReplayResult out;
    out.cycles = backend.finish();
    out.breakdown = backend.breakdown();
    return out;
}

} // namespace sc::trace
