#include "bench_util.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "backend/functional_backend.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "gpm/executor.hh"
#include "trace/recorder.hh"

namespace sc::bench {

void
printHeader(const std::string &figure, const std::string &title,
            const arch::SparseCoreConfig &config)
{
    setVerbose(false);
    std::printf("==== %s: %s ====\n", figure.c_str(), title.c_str());
    std::printf("config: %s\n", config.describe().c_str());
    std::printf("        cores modeled: 1 | L1d %lluKB | L2 %lluKB | "
                "L3 %lluMB | line 64B (Table 2)\n\n",
                static_cast<unsigned long long>(
                    config.mem.l1.sizeBytes / 1024),
                static_cast<unsigned long long>(
                    config.mem.l2.sizeBytes / 1024),
                static_cast<unsigned long long>(
                    config.mem.l3.sizeBytes / (1024 * 1024)));
}

bool
benchSmoke()
{
    return config().benchSmoke;
}

std::string
benchResultsDir()
{
    static const std::string dir = [] {
        std::string d = config().benchDir;
        std::error_code ec;
        std::filesystem::create_directories(d, ec);
        if (ec)
            warn("cannot create bench results dir %s: %s", d.c_str(),
                 ec.message().c_str());
        return d;
    }();
    return dir;
}

unsigned
autoStride(const graph::CsrGraph &g, gpm::GpmApp app,
           std::uint64_t target_elements)
{
    if (benchSmoke())
        target_elements = std::max<std::uint64_t>(
            1, target_elements / 64);
    // Probe at a coarse stride; work scales ~linearly with the root
    // count, so extrapolate and clamp.
    const unsigned probe =
        std::max(1u, std::min(257u, g.numVertices() / 32));
    backend::FunctionalBackend functional;
    gpm::PlanExecutor executor(g, functional);
    executor.setRootStride(probe);
    executor.runMany(gpm::gpmAppPlans(app));
    const std::uint64_t probe_work =
        functional.stats().get("setOpElements") +
        functional.stats().get("streamLoads") +
        functional.stats().get("nestedElements");
    const double full_work =
        static_cast<double>(probe_work) * probe;
    if (full_work <= static_cast<double>(target_elements))
        return 1;
    const double stride =
        full_work / static_cast<double>(target_elements);
    return static_cast<unsigned>(
        std::min<double>(stride + 1.0, g.numVertices() / 8.0 + 1.0));
}

trace::BytecodeProgram
captureGpmTrace(const graph::CsrGraph &g,
                const std::vector<gpm::MiningPlan> &plans,
                unsigned root_stride, std::uint64_t *embeddings)
{
    trace::TraceRecorder recorder;
    gpm::PlanExecutor executor(g, recorder);
    executor.setRootStride(root_stride);
    const auto run = executor.runMany(plans);
    if (embeddings)
        *embeddings = run.embeddings;
    return recorder.takeTrace();
}

api::Prepared
gpmArtifacts(gpm::GpmApp app, const graph::CsrGraph &g,
             unsigned root_stride)
{
    return api::prepare(
        api::ArtifactStore::resolveEnabled(std::nullopt)
            ? api::ArtifactStore::gpmTraceKey(app, g, root_stride)
            : std::string{},
        [&](trace::TraceRecorder &recorder) {
            gpm::PlanExecutor executor(g, recorder);
            executor.setRootStride(root_stride);
            return executor.runMany(gpm::gpmAppPlans(app)).embeddings;
        },
        std::nullopt);
}

trace::ReplayResult
replayArtifacts(const api::Prepared &artifacts, backend::ExecBackend &be)
{
    return trace::replayCompiled(*artifacts.program, be, /*verify=*/false);
}

void
emitTable(const Table &table)
{
    std::printf("%s\n", table.str().c_str());
    std::printf("-- csv --\n%s\n", table.csv().c_str());
}

BenchReport::BenchReport(std::string name) : name_(std::move(name))
{
}

BenchReport::~BenchReport()
{
    finish();
}

void
BenchReport::emit(const std::string &title, const Table &table)
{
    if (!title.empty())
        std::printf("--- %s ---\n", title.c_str());
    emitTable(table);
    tables_.emplace_back(title, table.json());
}

void
BenchReport::setExtra(const std::string &key, JsonValue value)
{
    extras_.emplace_back(key, std::move(value));
}

void
BenchReport::finish()
{
    if (finished_)
        return;
    finished_ = true;
    const double seconds = timer_.seconds();
    const unsigned threads = ThreadPool::global().numThreads();
    std::printf("host wall clock: %.3f s on %u host thread%s "
                "(SC_HOST_THREADS to pin)\n",
                seconds, threads, threads == 1 ? "" : "s");
    const api::ArtifactStoreStats store =
        api::ArtifactStore::global().stats();
    std::printf("%s\n", store.str().c_str());

    // One emission path (common/json) shared with the job server and
    // the CLI --json mode — this used to be hand-rolled fprintf.
    JsonValue out = JsonValue::object();
    out.set("bench", JsonValue::str(name_));
    out.set("host_threads",
            JsonValue::number(std::uint64_t{threads}));
    out.set("host_wall_seconds", JsonValue::number(seconds));
    JsonValue store_json = JsonValue::object();
    store_json.set("trace_hits", JsonValue::number(store.traces.hits));
    store_json.set("trace_misses",
                   JsonValue::number(store.traces.misses));
    out.set("artifact_store", std::move(store_json));
    JsonValue tables = JsonValue::array();
    for (const auto &[title, json] : tables_) {
        JsonValue entry = JsonValue::object();
        entry.set("title", JsonValue::str(title));
        // Table::json() emits trusted JSON; re-parse so the dump is
        // one well-formed document rather than spliced text.
        JsonParseResult parsed = parseJson(json);
        entry.set("table", parsed.ok() ? std::move(*parsed.value)
                                       : JsonValue::str(json));
        tables.push(std::move(entry));
    }
    out.set("tables", std::move(tables));
    for (auto &[key, value] : extras_)
        out.set(key, std::move(value));

    const std::string path =
        benchResultsDir() + "/BENCH_" + name_ + ".json";
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write %s", path.c_str());
        return;
    }
    const std::string text = out.dump();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

} // namespace sc::bench
