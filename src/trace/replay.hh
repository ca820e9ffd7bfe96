/**
 * @file
 * Replay: drive any ExecBackend with a captured program. The replay
 * issues exactly the call sequence the capture run issued — stream
 * handles are remapped through a dense table in creation order, so
 * backends that key costs off handle values (e.g. the CPU baseline's
 * per-site branch pcs) see identical numbering — making replayed
 * cycles and breakdowns bit-identical to direct execution.
 *
 * The engine: the program (trace/bytecode.hh, encoded by
 * TraceRecorder while it captures) is driven by a template-specialized
 * loop instantiated per concrete backend, so every backend call
 * devirtualizes and inlines. A program is reusable across backends
 * and replays — the intended shape is capture once, replayCompiled()
 * many times (api/pipeline.hh does exactly that for every api path,
 * verifying the program before the first replay).
 */

#ifndef SPARSECORE_TRACE_REPLAY_HH
#define SPARSECORE_TRACE_REPLAY_HH

#include <optional>

#include "backend/exec_backend.hh"
#include "trace/bytecode.hh"

namespace sc::trace {

/** Timing outcome of one replay. */
struct ReplayResult
{
    Cycles cycles = 0;
    sim::CycleBreakdown breakdown;
};

/**
 * Replay a program onto a backend (begin() .. finish()); capture
 * once per (app, dataset), replay onto any backend. Nested
 * groups re-dispatch through the backend's nestedIntersect, which
 * lowers to the explicit loop on substrates without S_NESTINTER —
 * one program serves both classes of hardware. Dispatch
 * devirtualizes for the concrete backend types (CpuBackend,
 * SparseCoreBackend, FunctionalBackend); other ExecBackends run
 * through the generic loop, one virtual call per captured call.
 *
 * When `verify` resolves to true (nullopt = analysis::verifyByDefault,
 * i.e. debug builds or SC_VERIFY=1) the program is checked against
 * the stream-lifetime contract (analysis::verifyBytecode) before any
 * backend call and analysis::VerifyError is thrown on violations.
 * The check reads only the program, so a verified replay's cycles
 * are identical to an unverified one.
 *
 * Concurrent replays of one program onto distinct backends are safe.
 */
ReplayResult replayCompiled(const BytecodeProgram &program,
                            backend::ExecBackend &backend,
                            std::optional<bool> verify = std::nullopt);

} // namespace sc::trace

#endif // SPARSECORE_TRACE_REPLAY_HH
