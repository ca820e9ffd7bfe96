/**
 * @file
 * The one execution pipeline every trace-driven path shares.
 *
 *   prepare()      obtain the trace (ArtifactStore under a content
 *                  key, or a local capture), verify it once, compile
 *   makeBackend()  the timing backend for a substrate
 *   replayCompiled the devirtualized bytecode replay (trace/replay.hh)
 *
 * Machine::run/compare, the multi-core miners (api/parallel.hh) and
 * the figure drivers all route through these, so verification, store
 * traffic and TraceStats cannot drift between them. Replay is
 * bit-identical to direct execution (the trace invariant), so which
 * path a workload takes only moves host wall clock.
 */

#ifndef SPARSECORE_API_PIPELINE_HH
#define SPARSECORE_API_PIPELINE_HH

#include <memory>
#include <optional>
#include <string>

#include "api/artifact_store.hh"
#include "api/run.hh"
#include "backend/exec_backend.hh"

namespace sc::api {

/** A trace ready to replay, with the stats of getting it there
 *  (TraceStats::replaySeconds is the caller's to fill). */
struct Prepared
{
    /** The trace and the functional result of its capture run. */
    std::shared_ptr<const ArtifactStore::CachedTrace> cached;
    std::shared_ptr<const trace::BytecodeProgram> program;
    TraceStats stats;

    const trace::Trace &trace() const { return cached->trace; }
    std::uint64_t functionalResult() const
    {
        return cached->functionalResult;
    }
};

/**
 * Obtain, verify and compile one workload's trace.
 *
 * With a non-empty `key` the trace and its program come out of
 * ArtifactStore::global(): `capture` runs only on a store miss, and
 * concurrent callers share one capture and one compile. With an empty
 * key `capture` runs against a local recorder and the program is
 * compiled privately.
 *
 * When `verify` resolves true (nullopt = analysis::verifyByDefault())
 * the trace is checked against the stream-lifetime contract on every
 * call — a keyed call recalls the store's cached verdict, so a
 * resident program never skips the check — and analysis::VerifyError
 * is thrown before anything is compiled or replayed.
 */
Prepared prepare(const std::string &key,
                 const ArtifactStore::CaptureFn &capture,
                 std::optional<bool> verify);

/** The timing backend for `substrate` under `config`. */
std::unique_ptr<backend::ExecBackend>
makeBackend(Substrate substrate, const arch::SparseCoreConfig &config);

} // namespace sc::api

#endif // SPARSECORE_API_PIPELINE_HH
