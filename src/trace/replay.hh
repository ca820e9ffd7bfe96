/**
 * @file
 * replay(): drive any ExecBackend with a captured Trace. The replay
 * issues exactly the call sequence the capture run issued — stream
 * handles are remapped through a dense table in creation order, so
 * backends that key costs off handle values (e.g. the CPU baseline's
 * per-site branch pcs) see identical numbering — making replayed
 * cycles and breakdowns bit-identical to direct execution.
 *
 * The engine: the trace is lowered once (trace/compile.hh) into the
 * flat bytecode form (trace/bytecode.hh) and driven by a
 * template-specialized loop instantiated per concrete backend, so
 * every backend call devirtualizes and inlines. The compiled program
 * is reusable across backends and replays — the intended shape is
 * compile once, replayCompiled() many times (api/pipeline.hh does
 * exactly that for every api path).
 *
 * replayEvents() keeps the original per-event walker, one virtual
 * ExecBackend call per captured Event. It issues the identical call
 * sequence and is the reference the bytecode loop is tested against;
 * no api path uses it.
 */

#ifndef SPARSECORE_TRACE_REPLAY_HH
#define SPARSECORE_TRACE_REPLAY_HH

#include <optional>

#include "backend/exec_backend.hh"
#include "trace/bytecode.hh"
#include "trace/trace.hh"

namespace sc::trace {

/** Timing outcome of one replay. */
struct ReplayResult
{
    Cycles cycles = 0;
    sim::CycleBreakdown breakdown;
};

/**
 * Replay the trace onto a backend (begin() .. finish()). Nested
 * groups re-dispatch through the backend's nestedIntersect, which
 * lowers to the explicit loop on substrates without S_NESTINTER —
 * one trace serves both classes of hardware.
 *
 * When `verify` resolves to true (nullopt = analysis::verifyByDefault,
 * i.e. debug builds or SC_VERIFY=1) the trace is checked against the
 * stream-lifetime contract before any backend call and
 * analysis::VerifyError is thrown on violations. The check reads only
 * the trace, so a verified replay's cycles are identical to an
 * unverified one.
 *
 * The trace is compiled on every call; callers that replay one trace
 * repeatedly should compileTrace() once and use replayCompiled().
 *
 * Thread safety: the trace is only read; concurrent replays of one
 * trace onto distinct backends are safe.
 */
ReplayResult replay(const Trace &trace, backend::ExecBackend &backend,
                    std::optional<bool> verify = std::nullopt);

/**
 * Replay a compiled program (compile once per (app, dataset), replay
 * onto any backend). Dispatch devirtualizes for the concrete backend
 * types (CpuBackend, SparseCoreBackend, FunctionalBackend); other
 * ExecBackends run through a generic loop that still skips the Event
 * materialization. Verification decodes back to event order and runs
 * the shared checker. Concurrent replays of one program onto
 * distinct backends are safe.
 */
ReplayResult replayCompiled(const BytecodeProgram &program,
                            backend::ExecBackend &backend,
                            std::optional<bool> verify = std::nullopt);

/**
 * The reference walker: replay the captured Event records directly,
 * one virtual backend call per event (no verification, no compile).
 * Bit-identical to replayCompiled() by construction; tests and
 * bench/replay_microbench compare the two.
 */
ReplayResult replayEvents(const Trace &trace,
                          backend::ExecBackend &backend);

} // namespace sc::trace

#endif // SPARSECORE_TRACE_REPLAY_HH
