#include "api/pipeline.hh"

#include <chrono>
#include <cinttypes>

#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "isa/stream_inst.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"

namespace sc::api {

namespace {

void
throwOnErrors(const analysis::VerifyReport &report)
{
    if (report.hasErrors())
        throw analysis::VerifyError(report.format());
}

} // namespace

std::string
traceKey(const RunRequest &req)
{
    const unsigned stride = req.options.stride;
    switch (req.workload) {
      case RunRequest::Workload::Gpm:
        return strprintf("gpm/%s/g%" PRIx64 "/s%u",
                         gpm::gpmAppName(req.app),
                         req.graph->fingerprint(),
                         req.options.rootStride);
      case RunRequest::Workload::Fsm:
        return strprintf("fsm/lg%" PRIx64 "/sup%" PRIu64,
                         req.labeledGraph->fingerprint(),
                         req.minSupport);
      case RunRequest::Workload::Spmspm:
        return strprintf("spmspm/%s/a%" PRIx64 "/b%" PRIx64 "/s%u",
                         kernels::spmspmAlgorithmName(req.algorithm),
                         req.matrixA->fingerprint(),
                         req.matrixB->fingerprint(), stride);
      case RunRequest::Workload::Ttv:
        return strprintf("ttv/t%" PRIx64 "/v%" PRIx64 "/s%u",
                         req.tensor->fingerprint(),
                         Fingerprint().add(*req.vector).value(), stride);
      case RunRequest::Workload::Ttm:
        return strprintf("ttm/t%" PRIx64 "/b%" PRIx64 "/s%u",
                         req.tensor->fingerprint(),
                         req.matrixB->fingerprint(), stride);
    }
    panic("unknown workload %u", static_cast<unsigned>(req.workload));
}

RunResult
execute(const RunRequest &req, backend::ExecBackend &be)
{
    RunResult out;
    const auto take = [&out](const auto &r, std::uint64_t functional) {
        out.functionalResult = functional;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
    };
    switch (req.workload) {
      case RunRequest::Workload::Gpm: {
        gpm::PlanExecutor executor(*req.graph, be);
        executor.setRootStride(req.options.rootStride);
        const auto r = executor.runMany(gpm::gpmAppPlans(req.app));
        take(r, r.embeddings);
        break;
      }
      case RunRequest::Workload::Fsm: {
        const auto r = gpm::runFsm(*req.labeledGraph, be, req.minSupport);
        take(r, r.totalFrequent());
        break;
      }
      case RunRequest::Workload::Spmspm: {
        const auto r = kernels::runSpmspm(*req.matrixA, *req.matrixB,
                                          req.algorithm, be,
                                          req.options.stride);
        take(r, r.valueOps);
        break;
      }
      case RunRequest::Workload::Ttv: {
        const auto r = kernels::runTtv(*req.tensor, *req.vector, be,
                                       req.options.stride);
        take(r, r.valueOps);
        break;
      }
      case RunRequest::Workload::Ttm: {
        const auto r = kernels::runTtm(*req.tensor, *req.matrixB, be,
                                       req.options.stride);
        take(r, r.valueOps);
        break;
      }
    }
    return out;
}

Prepared
prepare(const std::string &key, const ArtifactStore::CaptureFn &capture,
        std::optional<bool> verify)
{
    const bool check = verify.value_or(analysis::verifyByDefault());
    ArtifactStore &store = ArtifactStore::global();
    Prepared out;
    // The hit flag comes from whether *this call* ran the store's
    // builder, which is race-free under concurrent callers (the store
    // runs each builder at most once), unlike sampling its counters.
    bool captured = false;
    const auto t0 = std::chrono::steady_clock::now();
    out.cached = store.trace(key, [&](trace::TraceRecorder &rec) {
        captured = true;
        return capture(rec);
    });
    const auto t1 = std::chrono::steady_clock::now();
    out.key = key;
    out.program = {out.cached, &out.cached->trace};
    if (check)
        throwOnErrors(
            *store.verdict(key, *out.program, isa::numStreamRegs));

    TraceStats &stats = out.stats;
    stats.events = out.program->numEvents();
    stats.arenaBytes = out.program->arenaBytes();
    stats.bytecodeBytes = out.program->codeBytes();
    stats.replayMode = "bytecode";
    stats.traceCacheHit = !captured;
    stats.captureSeconds =
        captured ? std::chrono::duration<double>(t1 - t0).count() : 0;
    return out;
}

Prepared
prepare(const RunRequest &req, std::optional<bool> verify)
{
    return prepare(
        traceKey(req),
        [&req](trace::TraceRecorder &recorder) {
            return execute(req, recorder).functionalResult;
        },
        verify);
}

std::unique_ptr<backend::ExecBackend>
makeBackend(Substrate substrate, const arch::SparseCoreConfig &config)
{
    if (substrate == Substrate::Cpu)
        return std::make_unique<backend::CpuBackend>(config.core,
                                                     config.mem);
    return std::make_unique<backend::SparseCoreBackend>(config);
}

trace::ReplayResult
replay(const Prepared &prepared, Substrate substrate,
       const arch::SparseCoreConfig &config)
{
    const auto be = makeBackend(substrate, config);
    if (substrate == Substrate::SparseCore)
        static_cast<backend::SparseCoreBackend &>(*be).engine().useSuCosts(
            ArtifactStore::global().suCosts(prepared.key,
                                            *prepared.program,
                                            config.suWindow));
    return trace::replayCompiled(*prepared.program, *be,
                                 /*verify=*/false);
}

} // namespace sc::api
