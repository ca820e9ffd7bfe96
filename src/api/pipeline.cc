#include "api/pipeline.hh"

#include <chrono>

#include "analysis/trace_check.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "trace/compile.hh"

namespace sc::api {

namespace {

double
secondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

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
    // A local call always captures and compiles. A keyed call's hit
    // flags come from whether *this call* ran the store's builder,
    // which is race-free under concurrent callers (the store runs
    // each builder at most once), unlike sampling its counters.
    bool captured = key.empty();
    bool compiled = key.empty();
    const auto t0 = std::chrono::steady_clock::now();
    auto t1 = t0;
    if (!key.empty()) {
        ArtifactStore &store = ArtifactStore::global();
        out.cached = store.trace(key, [&](trace::TraceRecorder &rec) {
            captured = true;
            return capture(rec);
        });
        t1 = std::chrono::steady_clock::now();
        if (check)
            throwOnErrors(
                *store.verdict(key, out.trace(), isa::numStreamRegs));
        out.program = store.program(key, out.trace(), &compiled);
    } else {
        auto local = std::make_shared<ArtifactStore::CachedTrace>();
        trace::TraceRecorder recorder;
        local->functionalResult = capture(recorder);
        local->trace = recorder.takeTrace();
        out.cached = std::move(local);
        t1 = std::chrono::steady_clock::now();
        if (check)
            throwOnErrors(analysis::verifyTrace(out.trace()));
        out.program = std::make_shared<const trace::BytecodeProgram>(
            trace::compileTrace(out.trace()));
    }
    const auto t2 = std::chrono::steady_clock::now();

    TraceStats &stats = out.stats;
    stats.events = out.trace().numEvents();
    stats.arenaBytes = out.trace().arenaBytes();
    stats.bytecodeBytes = out.program->codeBytes();
    stats.replayMode = "bytecode";
    stats.traceCacheHit = !captured;
    stats.bytecodeCacheHit = !compiled;
    stats.captureSeconds = captured ? secondsBetween(t0, t1) : 0;
    stats.compileSeconds = compiled ? secondsBetween(t1, t2) : 0;
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
