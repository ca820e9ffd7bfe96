#include "trace/replay.hh"

#include "analysis/trace_check.hh"
#include "backend/cpu_backend.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"

namespace sc::trace {

using backend::BackendStream;

namespace {

/**
 * walkBytecode handler issuing backend calls. Instantiated once per
 * concrete backend type (B = CpuBackend etc.), so every call below is
 * direct and inlinable; B = ExecBackend is the generic fallback. The
 * issued call sequence is the captured one — a ScalarOpsRun re-issues
 * one scalarOps(n) per captured call, preserving the per-call
 * ceil(n/issueWidth) cost-model semantics.
 *
 * BytecodeProgram::finalize validated every handle, span and nested
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
    // further — it is stateless across events, so the EventProfile
    // aggregate replaces the walk entirely (run batching taken to its
    // limit; bit-identical stats by construction since every hook is
    // additive and order-independent). Everything else (baseline
    // accelerators, bench probes) takes the generic loop.
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

} // namespace sc::trace
