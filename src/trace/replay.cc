#include "trace/replay.hh"

#include <limits>

#include "analysis/trace_check.hh"
#include "backend/cpu_backend.hh"
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

/** walkBytecode handler appending the SU cost of each operation a
 *  SparseCore replay issues, in issue order (see suCostColumn). */
struct SuCostWalk
{
    const BytecodeProgram &bc;
    unsigned window;
    std::vector<arch::SuCostColumn::Entry> &out;

    void
    cost(SpanRef s0, SpanRef s1, streams::SetOpKind kind, Key bound)
    {
        const streams::SuCost c =
            streams::suCost(bc.span(s0), bc.span(s1), kind, bound, window);
        const std::uint64_t consumed = c.aConsumed + c.bConsumed;
        constexpr std::uint64_t limit =
            std::numeric_limits<std::uint32_t>::max();
        if (c.cycles > limit || consumed > limit)
            panic("SU cost (%llu cycles, %llu elements) does not fit "
                  "a cost column entry",
                  static_cast<unsigned long long>(c.cycles),
                  static_cast<unsigned long long>(consumed));
        out.push_back({static_cast<std::uint32_t>(c.cycles),
                       static_cast<std::uint32_t>(consumed)});
    }

    void scalarOps(std::uint64_t, std::uint32_t) {}
    void scalarBranch(std::uint64_t, bool) {}
    void scalarLoad(Addr) {}
    void streamLoad(TraceStream, Addr, std::uint64_t, std::uint8_t,
                    SpanRef)
    {
    }
    void streamLoadKv(TraceStream, Addr, Addr, std::uint64_t,
                      std::uint8_t, SpanRef)
    {
    }
    void streamFree(TraceStream) {}
    void
    setOp(TraceStream, std::uint8_t kind, TraceStream, TraceStream,
          SpanRef s0, SpanRef s1, Key bound, SpanRef, Addr)
    {
        cost(s0, s1, static_cast<streams::SetOpKind>(kind), bound);
    }
    void
    setOpCount(std::uint8_t kind, TraceStream, TraceStream, SpanRef s0,
               SpanRef s1, Key bound, std::uint64_t)
    {
        cost(s0, s1, static_cast<streams::SetOpKind>(kind), bound);
    }
    void
    valueIntersect(bool, TraceStream, TraceStream, SpanRef s0,
                   SpanRef s1, Addr, Addr, SpanRef, SpanRef)
    {
        cost(s0, s1, streams::SetOpKind::Intersect, noBound);
    }
    void
    valueMerge(TraceStream, TraceStream, TraceStream, SpanRef s0,
               SpanRef s1, Addr, Addr, std::uint64_t, Addr)
    {
        cost(s0, s1, streams::SetOpKind::Merge, noBound);
    }
    void
    nestedGroup(TraceStream, SpanRef s0, std::uint64_t index,
                std::uint32_t count)
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            const NestedEntry &entry = bc.nestedEntry(index + i);
            cost(s0, entry.nested, streams::SetOpKind::Intersect,
                 entry.bound);
        }
    }
    void consumeStream(TraceStream) {}
    void iterateStream(TraceStream, std::uint64_t, std::uint8_t) {}
};

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

    // One devirtualized loop instantiation per timing backend: the
    // concrete classes are final, so B's calls resolve statically and
    // inline into the decode switch. Everything else (the functional
    // substrate, baseline accelerators, bench probes) takes the
    // generic loop.
    if (auto *cpu = dynamic_cast<backend::CpuBackend *>(&backend))
        runBytecode(program, *cpu);
    else if (auto *sc =
                 dynamic_cast<backend::SparseCoreBackend *>(&backend))
        runBytecode(program, *sc);
    else
        runBytecode(program, backend);

    ReplayResult out;
    out.cycles = backend.finish();
    out.breakdown = backend.breakdown();
    return out;
}

arch::SuCostColumn
suCostColumn(const BytecodeProgram &program, unsigned window)
{
    arch::SuCostColumn column;
    column.window = window;
    column.entries.reserve(program.numSuOps());
    walkBytecode(program, SuCostWalk{program, window, column.entries});
    if (column.entries.size() != program.numSuOps())
        panic("SU cost walk found %zu operations, the program counts %zu",
              column.entries.size(), program.numSuOps());
    return column;
}

} // namespace sc::trace
