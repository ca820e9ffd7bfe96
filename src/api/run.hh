/**
 * @file
 * Struct-based request/result types for the Machine facade.
 *
 * The original facade grew one positional-argument overload per
 * (workload × substrate) pair — nine entry points whose unsigned
 * parameters (stride? root_stride? threads?) were easy to transpose
 * silently. A RunRequest names every field once, carries the shared
 * RunOptions knobs, and feeds exactly two entry points:
 *
 *   api::Machine machine;
 *   const auto req = api::RunRequest::gpm(gpm::GpmApp::T, graph);
 *   const auto run = machine.run(req, api::Substrate::SparseCore);
 *   const auto cmp = machine.compare(req); // both substrates
 *
 * The old overloads survived PR 3 as [[deprecated]] shims and were
 * removed in PR 7; RunRequest is the only entry point.
 */

#ifndef SPARSECORE_API_RUN_HH
#define SPARSECORE_API_RUN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gpm/apps.hh"
#include "graph/labeled_graph.hh"
#include "kernels/spmspm.hh"
#include "sim/core_model.hh"
#include "tensor/csf_tensor.hh"
#include "tensor/sparse_matrix.hh"

namespace sc::api {

/** Which execution substrate run() should time. */
enum class Substrate { Cpu, SparseCore };

/** Knobs shared by every workload. */
struct RunOptions
{
    /** Tensor kernels: process every stride-th row/fiber. */
    unsigned stride = 1;
    /** GPM/FSM: process every rootStride-th root vertex. */
    unsigned rootStride = 1;
    /**
     * Run the stream-lifetime verifier (analysis/) over the captured
     * trace and throw analysis::VerifyError on violations, before
     * any replay (api::prepare). nullopt =
     * analysis::verifyByDefault(): on in debug builds, off in
     * release, overridable with SC_VERIFY=0/1. The check reads only
     * the trace, so it never changes simulated cycles.
     */
    std::optional<bool> verify;
    /**
     * Share captured traces and compiled bytecode across run()/
     * compare() calls through the content-keyed ArtifactStore
     * (api/artifact_store.hh). nullopt = SC_ARTIFACT_CACHE (default
     * on). Cached and cold paths are bit-identical in results and
     * simulated cycles — the store only moves host wall-clock
     * (tests/artifact_store_test.cc pins the identity).
     */
    std::optional<bool> artifactCache;
};

/**
 * One workload description: the variant tag plus the dataset
 * references that variant needs. Use the named factories — they set
 * exactly the fields the workload reads, and validation rejects the
 * rest. Referenced datasets must outlive the request.
 */
struct RunRequest
{
    enum class Workload { Gpm, Fsm, Spmspm, Ttv, Ttm };

    Workload workload = Workload::Gpm;
    RunOptions options;

    // Gpm
    gpm::GpmApp app = gpm::GpmApp::T;
    const graph::CsrGraph *graph = nullptr;
    // Fsm
    const graph::LabeledGraph *labeledGraph = nullptr;
    std::uint64_t minSupport = 0;
    // Spmspm
    const tensor::SparseMatrix *matrixA = nullptr;
    const tensor::SparseMatrix *matrixB = nullptr;
    kernels::SpmspmAlgorithm algorithm =
        kernels::SpmspmAlgorithm::Gustavson;
    /** Optional functional product for validation (may stay null). */
    tensor::SparseMatrix *spmspmResult = nullptr;
    // Ttv / Ttm
    const tensor::CsfTensor *tensor = nullptr;
    const std::vector<Value> *vector = nullptr;

    static RunRequest
    gpm(gpm::GpmApp app, const graph::CsrGraph &g,
        RunOptions options = {})
    {
        RunRequest req;
        req.workload = Workload::Gpm;
        req.options = options;
        req.app = app;
        req.graph = &g;
        return req;
    }

    static RunRequest
    fsm(const graph::LabeledGraph &g, std::uint64_t min_support,
        RunOptions options = {})
    {
        RunRequest req;
        req.workload = Workload::Fsm;
        req.options = options;
        req.labeledGraph = &g;
        req.minSupport = min_support;
        return req;
    }

    static RunRequest
    spmspm(const tensor::SparseMatrix &a, const tensor::SparseMatrix &b,
           kernels::SpmspmAlgorithm algorithm, RunOptions options = {},
           tensor::SparseMatrix *result = nullptr)
    {
        RunRequest req;
        req.workload = Workload::Spmspm;
        req.options = options;
        req.matrixA = &a;
        req.matrixB = &b;
        req.algorithm = algorithm;
        req.spmspmResult = result;
        return req;
    }

    static RunRequest
    ttv(const tensor::CsfTensor &t, const std::vector<Value> &vec,
        RunOptions options = {})
    {
        RunRequest req;
        req.workload = Workload::Ttv;
        req.options = options;
        req.tensor = &t;
        req.vector = &vec;
        return req;
    }

    static RunRequest
    ttm(const tensor::CsfTensor &t, const tensor::SparseMatrix &b,
        RunOptions options = {})
    {
        RunRequest req;
        req.workload = Workload::Ttm;
        req.options = options;
        req.tensor = &t;
        req.matrixB = &b;
        return req;
    }
};

/**
 * Capture/replay statistics of a trace-driven execution: the
 * workload ran functionally once (capture, which encodes the SCBC
 * program) and the substrate(s) were timed by replaying it.
 */
struct TraceStats
{
    std::size_t events = 0;     ///< captured events
    std::size_t arenaBytes = 0; ///< interned key-arena bytes
    /** SCBC code bytes of the captured program. */
    std::size_t bytecodeBytes = 0;
    /** "bytecode" on every trace-driven path; empty on direct
     *  execution (report emission keys off it). */
    std::string replayMode;
    /** The program came out of the ArtifactStore warm: the
     *  functional capture run was skipped entirely. */
    bool traceCacheHit = false;
    double captureSeconds = 0;  ///< host wall-clock of the capture run
    double replaySeconds = 0;   ///< host wall-clock of the replay(s)
};

/** Outcome of run() on one substrate. */
struct RunResult
{
    /** Embeddings (GPM), frequent patterns (FSM) or value ops
     *  (tensor kernels) — the same scalar compare() reports. */
    std::uint64_t functionalResult = 0;
    Cycles cycles = 0;
    sim::CycleBreakdown breakdown;
    /** Capture/replay stats when the run was store-backed; zeroed
     *  (empty replayMode) on the direct-execution cold path. */
    TraceStats trace;
};

} // namespace sc::api

#endif // SPARSECORE_API_RUN_HH
