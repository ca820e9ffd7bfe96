#include "api/machine.hh"

#include <chrono>
#include <string>

#include "analysis/verifying_backend.hh"
#include "api/pipeline.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

namespace sc::api {

namespace {

void
validate(const RunRequest &req)
{
    switch (req.workload) {
      case RunRequest::Workload::Gpm:
        if (!req.graph)
            fatal("GPM request needs a graph");
        break;
      case RunRequest::Workload::Fsm:
        if (!req.labeledGraph)
            fatal("FSM request needs a labeled graph");
        break;
      case RunRequest::Workload::Spmspm:
        if (!req.matrixA || !req.matrixB)
            fatal("spmspm request needs both matrices");
        break;
      case RunRequest::Workload::Ttv:
        if (!req.tensor || !req.vector)
            fatal("TTV request needs a tensor and a dense vector");
        break;
      case RunRequest::Workload::Ttm:
        if (!req.tensor || !req.matrixB)
            fatal("TTM request needs a tensor and a matrix");
        break;
    }
    if (req.options.stride == 0 || req.options.rootStride == 0)
        fatal("strides must be positive");
}

/** Run the request's workload against one backend. Works for timing
 *  backends and the TraceRecorder alike — the capture leg of
 *  compare() is the same code path as run(). */
RunResult
executeOn(const RunRequest &req, backend::ExecBackend &be)
{
    RunResult out;
    switch (req.workload) {
      case RunRequest::Workload::Gpm: {
        gpm::PlanExecutor executor(*req.graph, be);
        executor.setRootStride(req.options.rootStride);
        const auto r = executor.runMany(gpm::gpmAppPlans(req.app));
        out.functionalResult = r.embeddings;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Fsm: {
        const auto r =
            gpm::runFsm(*req.labeledGraph, be, req.minSupport);
        out.functionalResult = r.totalFrequent();
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Spmspm: {
        const auto r = kernels::runSpmspm(
            *req.matrixA, *req.matrixB, req.algorithm, be,
            req.options.stride, req.spmspmResult);
        out.functionalResult = r.valueOps;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Ttv: {
        const auto r = kernels::runTtv(*req.tensor, *req.vector, be,
                                       req.options.stride);
        out.functionalResult = r.valueOps;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
      case RunRequest::Workload::Ttm: {
        const auto r = kernels::runTtm(*req.tensor, *req.matrixB, be,
                                       req.options.stride);
        out.functionalResult = r.valueOps;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
        break;
      }
    }
    return out;
}

/**
 * ArtifactStore key for the request, or "" when the request bypasses
 * the store or its workload is not content-keyed. GPM and FSM
 * datasets carry content fingerprints, so their captures are pure
 * functions of the key; the tensor workloads stay uncached for now
 * (each bench point runs them once, and spmspm may materialize a
 * caller-owned result matrix the cache could not replay).
 */
std::string
traceKeyFor(const RunRequest &req)
{
    if (!ArtifactStore::resolveEnabled(req.options.artifactCache))
        return {};
    switch (req.workload) {
      case RunRequest::Workload::Gpm:
        return ArtifactStore::gpmTraceKey(req.app, *req.graph,
                                          req.options.rootStride);
      case RunRequest::Workload::Fsm:
        return ArtifactStore::fsmTraceKey(*req.labeledGraph,
                                          req.minSupport);
      default:
        return {};
    }
}

/** The capture leg for prepare(): executeOn() against the recorder,
 *  the same code path as direct execution. */
ArtifactStore::CaptureFn
captureOf(const RunRequest &req)
{
    return [&req](trace::TraceRecorder &recorder) {
        return executeOn(req, recorder).functionalResult;
    };
}

double
secondsSince(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - from)
        .count();
}

} // namespace

Machine::Machine(const arch::SparseCoreConfig &config) : config_(config)
{
}

RunResult
Machine::run(const RunRequest &request, Substrate substrate) const
{
    validate(request);

    // Unkeyed workloads execute directly on the timing backend: one
    // functional pass instead of a capture plus a replay. The
    // verifying wrapper forwards every call unchanged, so verified
    // and unverified runs report the same cycles — it only adds
    // VerifyError on contract violations.
    const std::string key = traceKeyFor(request);
    if (key.empty()) {
        const auto be = makeBackend(substrate, config_);
        if (!request.options.verify.value_or(
                analysis::verifyByDefault()))
            return executeOn(request, *be);
        analysis::VerifyingBackend vbe(*be);
        return executeOn(request, vbe);
    }

    // Keyed workloads replay the store's trace: a warm run skips the
    // functional enumeration and the compile. Replay is bit-identical
    // to direct execution, so this only moves host wall clock.
    const Prepared prepared =
        prepare(key, captureOf(request), request.options.verify);
    const auto t0 = std::chrono::steady_clock::now();
    const auto be = makeBackend(substrate, config_);
    const trace::ReplayResult rep =
        trace::replayCompiled(*prepared.program, *be, /*verify=*/false);
    RunResult out;
    out.functionalResult = prepared.functionalResult();
    out.cycles = rep.cycles;
    out.breakdown = rep.breakdown;
    out.trace = prepared.stats;
    out.trace.replaySeconds = secondsSince(t0);
    return out;
}

Comparison
Machine::compare(const RunRequest &request) const
{
    validate(request);

    // Capture once (or hit the store), then replay the shared program
    // onto both substrates concurrently.
    const Prepared prepared = prepare(
        traceKeyFor(request), captureOf(request), request.options.verify);
    const auto t0 = std::chrono::steady_clock::now();
    trace::ReplayResult cpu, sc;
    const auto replayOn = [&](Substrate substrate) {
        return trace::replayCompiled(*prepared.program,
                                     *makeBackend(substrate, config_),
                                     /*verify=*/false);
    };
    parallelInvoke(
        ThreadPool::global(), [&] { cpu = replayOn(Substrate::Cpu); },
        [&] { sc = replayOn(Substrate::SparseCore); });

    Comparison cmp;
    cmp.functionalResult = prepared.functionalResult();
    cmp.baseline = {"cpu", cpu.cycles, cpu.breakdown};
    cmp.accelerated = {"sparsecore", sc.cycles, sc.breakdown};
    cmp.trace = prepared.stats;
    cmp.trace.replaySeconds = secondsSince(t0);
    return cmp;
}

} // namespace sc::api
