#include "api/machine.hh"

#include <chrono>

#include "api/pipeline.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
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

    // Capture once (or hit the store), then replay the program onto
    // the substrate.
    const Prepared prepared = prepare(request, request.options.verify);
    const auto t0 = std::chrono::steady_clock::now();
    const trace::ReplayResult rep = replay(prepared, substrate, config_);
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
    const Prepared prepared = prepare(request, request.options.verify);
    const auto t0 = std::chrono::steady_clock::now();
    trace::ReplayResult cpu, sc;
    parallelInvoke(
        ThreadPool::global(),
        [&] { cpu = replay(prepared, Substrate::Cpu, config_); },
        [&] { sc = replay(prepared, Substrate::SparseCore, config_); });

    Comparison cmp;
    cmp.functionalResult = prepared.functionalResult();
    cmp.baseline = {"cpu", cpu.cycles, cpu.breakdown};
    cmp.accelerated = {"sparsecore", sc.cycles, sc.breakdown};
    cmp.trace = prepared.stats;
    cmp.trace.replaySeconds = secondsSince(t0);
    return cmp;
}

} // namespace sc::api
