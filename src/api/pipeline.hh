/**
 * @file
 * The one execution pipeline every workload shares.
 *
 *   traceKey()     the request's content key in the ArtifactStore
 *   execute()      run the request's workload against any backend
 *   prepare()      obtain the captured program from the ArtifactStore
 *                  under its content key, and check its verdict
 *   makeBackend()  the timing backend for a substrate
 *   replay()       replay a prepared program onto a fresh timing
 *                  backend (trace::replayCompiled), a SparseCore one
 *                  reading its SU costs from the store's column
 *
 * Machine::run/compare, the multi-core miners (api/parallel.hh), the
 * job queue and the figure drivers all route through these, so keys,
 * verification, store traffic and TraceStats cannot drift between
 * them. Replay is bit-identical to execute() on the same backend (the
 * trace invariant), so whether prepare() captured or hit the store
 * only moves host wall clock, and execute() on a fresh makeBackend()
 * is the reference a replay is checked against.
 */

#ifndef SPARSECORE_API_PIPELINE_HH
#define SPARSECORE_API_PIPELINE_HH

#include <memory>
#include <optional>
#include <string>

#include "api/artifact_store.hh"
#include "api/run.hh"
#include "backend/exec_backend.hh"
#include "trace/replay.hh"

namespace sc::api {

/** A program ready to replay, with the stats of getting it there
 *  (TraceStats::replaySeconds is the caller's to fill). */
struct Prepared
{
    /** The program's ArtifactStore key. */
    std::string key;
    /** The program and the functional result of its capture run. */
    std::shared_ptr<const ArtifactStore::CachedTrace> cached;
    /** cached->trace, sharing the entry's ownership. */
    std::shared_ptr<const trace::BytecodeProgram> program;
    TraceStats stats;

    std::uint64_t functionalResult() const
    {
        return cached->functionalResult;
    }
};

/**
 * The ArtifactStore key of the request's captured program. Keys are
 * built from content fingerprints, never from object addresses or
 * names:
 *
 *   gpm/<app>/g<graph fp>/s<root stride>
 *   fsm/lg<labeled-graph fp>/sup<min support>
 *   spmspm/<algorithm>/a<A fp>/b<B fp>/s<stride>
 *   ttv/t<tensor fp>/v<vector fp>/s<stride>
 *   ttm/t<tensor fp>/b<B fp>/s<stride>
 *
 * The host-parallel miners key chunk m of n as the run key plus
 * /c<m>of<n>.
 */
std::string traceKey(const RunRequest &req);

/** Run the request's workload against `be`: a timing backend, the
 *  TraceRecorder that prepare() captures with, or any other. */
RunResult execute(const RunRequest &req, backend::ExecBackend &be);

/**
 * Obtain and verify one workload's captured program.
 *
 * The program comes out of ArtifactStore::global() under `key`:
 * `capture` runs only on a store miss, and concurrent callers share
 * one capture.
 *
 * When `verify` resolves true (nullopt = analysis::verifyByDefault())
 * the program is checked against the stream-lifetime contract on
 * every call — through the store's cached verdict, so a resident
 * program never skips the check — and analysis::VerifyError is
 * thrown before anything is replayed.
 */
Prepared prepare(const std::string &key,
                 const ArtifactStore::CaptureFn &capture,
                 std::optional<bool> verify);

/** prepare(traceKey(req), a capture that execute()s `req`, verify). */
Prepared prepare(const RunRequest &req, std::optional<bool> verify);

/** The timing backend for `substrate` under `config`. */
std::unique_ptr<backend::ExecBackend>
makeBackend(Substrate substrate, const arch::SparseCoreConfig &config);

/**
 * Replay a prepared (already verified) program onto a fresh
 * makeBackend(substrate, config). A SparseCore replay attaches the
 * program's SU cost column at config.suWindow from
 * ArtifactStore::global() — the first replay per (key, window)
 * builds it, concurrent first replays share one build — so it reads
 * every SU cost instead of computing it. The cycles are those of
 * direct execution either way.
 */
trace::ReplayResult replay(const Prepared &prepared, Substrate substrate,
                           const arch::SparseCoreConfig &config);

} // namespace sc::api

#endif // SPARSECORE_API_PIPELINE_HH
