#include "api/pipeline.hh"

#include <chrono>

#include "analysis/trace_check.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"

namespace sc::api {

namespace {

void
throwOnErrors(const analysis::VerifyReport &report)
{
    if (report.hasErrors())
        throw analysis::VerifyError(report.format());
}

} // namespace

Prepared
prepare(const std::string &key, const ArtifactStore::CaptureFn &capture,
        std::optional<bool> verify)
{
    const bool check = verify.value_or(analysis::verifyByDefault());
    Prepared out;
    // A local call always captures. A keyed call's hit flag comes from
    // whether *this call* ran the store's builder, which is race-free
    // under concurrent callers (the store runs each builder at most
    // once), unlike sampling its counters.
    bool captured = key.empty();
    const auto t0 = std::chrono::steady_clock::now();
    if (!key.empty()) {
        out.cached = ArtifactStore::global().trace(
            key, [&](trace::TraceRecorder &rec) {
                captured = true;
                return capture(rec);
            });
    } else {
        auto local = std::make_shared<ArtifactStore::CachedTrace>();
        trace::TraceRecorder recorder;
        local->functionalResult = capture(recorder);
        local->trace = recorder.takeTrace();
        out.cached = std::move(local);
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.program = {out.cached, &out.cached->trace};
    if (check && key.empty())
        throwOnErrors(analysis::verifyBytecode(*out.program));
    else if (check)
        throwOnErrors(*ArtifactStore::global().verdict(
            key, *out.program, isa::numStreamRegs));

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

std::unique_ptr<backend::ExecBackend>
makeBackend(Substrate substrate, const arch::SparseCoreConfig &config)
{
    if (substrate == Substrate::Cpu)
        return std::make_unique<backend::CpuBackend>(config.core,
                                                     config.mem);
    return std::make_unique<backend::SparseCoreBackend>(config);
}

} // namespace sc::api
