/**
 * @file
 * pipeline_bench — the repository benchmark: seeded job streams fed
 * through the real api::JobQueue, timed end to end, plus a traced run
 * that splits the same jobs into the pipeline's layers.
 *
 * Untraced run (the end-to-end metrics): after set-up, four client
 * threads each keep one job outstanding (a closed loop, 4 in flight)
 * on a JobQueue with 2 workers and SC_HOST_THREADS=2, for whole passes
 * of the workload's catalogue until --seconds have passed and at
 * least 100 jobs were submitted. Every result is checked against
 * expected.json. --setup-only stops after set-up and prints
 * {"setup_s": ..}, so a caller can take the median set-up time of
 * several processes (run.py does).
 *
 * Traced run (--trace, the per-layer metrics): one untraced pass
 * through the queue (admission, queue wait, scheduler and store
 * counters), then the same pass re-executed one job at a time from
 * bench code, with spans around each layer's public entry points:
 *   stage pass   resolve, admission summary, store trace / capture,
 *                compile, replay (or direct execution) per substrate,
 *                emit — on the concrete backends;
 *   exec pass    the capture re-run on a FunctionalBackend;
 *   decode pass  the compiled program replayed onto a no-op backend;
 *   hook pass    the timing legs again through a per-hook timer.
 * Traced cycles and results must equal the untraced ones, and the
 * stage spans must cover at least 95% of the traced job wall.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * The exit status is 1 when any job failed or mismatched.
 *
 * Usage:
 *   pipeline_bench --workload NAME [--seed N] [--seconds S]
 *                  [--trace [0|1]] [--smoke] [--setup-only]
 *                  [--golden FILE] [--out DIR]
 *   pipeline_bench --bless-golden [--golden FILE]
 *   pipeline_bench --build-info
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/artifact_store.hh"
#include "api/job_queue.hh"
#include "api/machine.hh"
#include "backend/functional_backend.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "probes.hh"
#include "spans.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "workloads.hh"

extern char **environ;

using namespace sc;
using namespace sc::pipeline;

namespace {

constexpr unsigned kQueueWorkers = 2;
constexpr unsigned kClients = 4;
constexpr const char *kHostThreads = "2";
/** The p90 needs at least 10 samples beyond it. */
constexpr std::size_t kMinJobs = 100;

const Clock::time_point kProcessStart = Clock::now();

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = "unknown";
#endif

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    bool smoke = false;
    bool setupOnly = false;
    bool blessGolden = false;
    std::string golden = PIPELINE_BENCH_DIR "/expected.json";
    std::string outDir = "build/bench_pipeline";
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace [0|1]] [--smoke] "
                 "[--setup-only] [--golden FILE] [--out DIR]\n"
                 "       pipeline_bench --bless-golden [--golden FILE]\n"
                 "       pipeline_bench --build-info\n"
                 "workloads: gpm_warm fsm_cold tensor_uncached "
                 "mixed_service\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace") {
            o.trace = true;
            if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                 std::strcmp(argv[i + 1], "1") == 0))
                o.trace = value() == "1";
        } else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--setup-only")
            o.setupOnly = true;
        else if (a == "--bless-golden")
            o.blessGolden = true;
        else if (a == "--build-info") {
            std::printf("{\"build_type\": %s, \"compiler\": %s}\n",
                        jsonQuote(PIPELINE_BUILD_TYPE).c_str(),
                        jsonQuote(kCompiler).c_str());
            std::exit(0);
        }
        else if (a == "--golden")
            o.golden = value();
        else if (a == "--out")
            o.outDir = value();
        else
            usage();
    }
    if (!o.blessGolden && o.workload.empty())
        usage();
    if (!(o.seconds > 0))
        usage();
    return o;
}

/**
 * Pin the library configuration: drop every SC_* knob the caller's
 * environment might carry and set the ones the benchmark defines.
 * Must run before the library reads its configuration.
 */
void
pinEnvironment(std::size_t store_bytes)
{
    std::vector<std::string> knobs;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "SC_", 3) == 0)
            knobs.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &k : knobs)
        unsetenv(k.c_str());
    setenv("SC_HOST_THREADS", kHostThreads, 1);
    if (store_bytes)
        setenv("SC_ARTIFACT_CACHE_BYTES",
               std::to_string(store_bytes).c_str(), 1);
}

// ---------------------------------------------------------------------
// Expected outputs
// ---------------------------------------------------------------------

/** What one job produced: the functional result and the cycles of
 *  each substrate it timed. */
struct Outcome
{
    std::uint64_t result = 0;
    std::optional<Cycles> cpu, sc;

    bool operator==(const Outcome &) const = default;
};

Outcome
outcomeOf(const api::JobReport &report)
{
    Outcome o;
    if (report.comparison) {
        o.result = report.comparison->functionalResult;
        o.cpu = report.comparison->baseline.cycles;
        o.sc = report.comparison->accelerated.cycles;
    } else if (report.run) {
        o.result = report.run->functionalResult;
        (report.spec.substrate == api::Substrate::Cpu ? o.cpu : o.sc) =
            report.run->cycles;
    }
    return o;
}

struct Expected
{
    Cycles cpu = 0, sc = 0;
    std::uint64_t result = 0;
};

using Golden = std::map<std::string, Expected>;

Golden
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read %s (run with --bless-golden)", path.c_str());
    std::stringstream text;
    text << in.rdbuf();
    const JsonParseResult parsed = parseJson(text.str());
    const JsonValue *jobs = parsed.ok() ? parsed.value->find("jobs")
                                        : nullptr;
    if (!jobs || !jobs->isArray())
        fatal("%s: expected an object with a \"jobs\" array",
              path.c_str());
    Golden golden;
    for (const JsonValue &item : jobs->items()) {
        const JsonValue *spec = item.find("spec");
        const JsonValue *cpu = item.find("cpu_cycles");
        const JsonValue *sc = item.find("sparsecore_cycles");
        const JsonValue *result = item.find("result");
        if (!spec || !cpu || !sc || !result)
            fatal("%s: malformed entry %s", path.c_str(),
                  item.dump().c_str());
        const api::JobSpecParse p = api::parseJobSpec(spec->dump());
        if (!p.ok())
            fatal("%s: bad spec %s", path.c_str(), spec->dump().c_str());
        golden[goldenKey(*p.spec)] = {cpu->asUint(), sc->asUint(),
                                      result->asUint()};
    }
    return golden;
}

/** "" when the outcome matches expected.json, else the difference. */
std::string
goldenMismatch(const Golden &golden, const api::JobSpec &spec,
               const Outcome &o)
{
    const std::string key = goldenKey(spec);
    const auto it = golden.find(key);
    if (it == golden.end())
        return "no expected output for " + key;
    const Expected &e = it->second;
    if (o.result != e.result || (o.cpu && *o.cpu != e.cpu) ||
        (o.sc && *o.sc != e.sc))
        return strprintf("%s: got result %llu cpu %llu sc %llu, expected "
                         "%llu / %llu / %llu",
                         key.c_str(),
                         static_cast<unsigned long long>(o.result),
                         static_cast<unsigned long long>(o.cpu.value_or(0)),
                         static_cast<unsigned long long>(o.sc.value_or(0)),
                         static_cast<unsigned long long>(e.result),
                         static_cast<unsigned long long>(e.cpu),
                         static_cast<unsigned long long>(e.sc));
    return {};
}

/** Regenerate expected.json: every distinct job of every catalogue,
 *  full and smoke, compared once through Machine. */
int
blessGolden(const std::string &path)
{
    std::map<std::string, api::JobSpec> specs;
    for (const std::string &name : workloadNames())
        for (const bool smoke : {false, true})
            for (const api::JobSpec &spec :
                 catalogueJobs(makeWorkload(name, smoke)))
                specs.emplace(goldenKey(spec), spec);

    std::ofstream out(path);
    out << "{\n  \"about\": \"Expected cpu and sparsecore cycles and "
           "functional result of every distinct job in the pipeline "
           "benchmark catalogues (full and smoke). Regenerate with "
           "pipeline_bench --bless-golden.\",\n  \"jobs\": [";
    const char *sep = "\n";
    for (const auto &[key, spec] : specs) {
        const api::JobResolve r = api::resolveJob(spec);
        if (!r.ok())
            fatal("cannot resolve %s", key.c_str());
        const api::Comparison c =
            api::Machine(r.job->config).compare(r.job->request);
        JsonValue entry = JsonValue::object();
        entry.set("spec", parseJson(key).value.value());
        entry.set("cpu_cycles", JsonValue::number(c.baseline.cycles));
        entry.set("sparsecore_cycles",
                  JsonValue::number(c.accelerated.cycles));
        entry.set("result", JsonValue::number(c.functionalResult));
        out << sep << "    " << entry.dump();
        sep = ",\n";
        std::printf("%s\n", entry.dump().c_str());
    }
    out << "\n  ]\n}\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %zu expected outputs to %s\n", specs.size(),
                path.c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/** Capture the request's trace into the store, as Machine does. */
std::shared_ptr<const api::ArtifactStore::CachedTrace>
storeTrace(const std::string &key, const api::RunRequest &req,
           bool *captured)
{
    return api::ArtifactStore::global().trace(
        key, [&](trace::TraceRecorder &recorder) {
            if (captured)
                *captured = true;
            return runWorkload(req, recorder).functionalResult;
        });
}

/** Resolve every dataset of the catalogue (graphs with their set
 *  index, labeled graphs, matrices, tensors) and, for a warm-store
 *  workload, capture and compile every store key. */
void
setUp(const Workload &workload)
{
    std::set<std::string> warmed;
    for (const api::JobSpec &spec : catalogueJobs(workload)) {
        const api::JobResolve r = api::resolveJob(spec);
        if (!r.ok())
            fatal("cannot resolve catalogue job %s",
                  spec.toJson().c_str());
        const std::string &key = r.job->affinityKey;
        if (!workload.warmStore || key.empty() ||
            !warmed.insert(key).second)
            continue;
        const auto cached = storeTrace(key, r.job->request, nullptr);
        api::ArtifactStore::global().program(key, cached->trace);
    }
}

// ---------------------------------------------------------------------
// Untraced closed loop
// ---------------------------------------------------------------------

struct JobSample
{
    api::JobSpec spec;
    double latency = 0; ///< submit() call -> future ready
    double admit = 0;   ///< the submit() call itself
    double queue = 0;   ///< report queue_seconds
    double exec = 0;    ///< report exec_seconds
    bool warm = false;  ///< the trace came out of the store
    Outcome outcome;
    std::string error;  ///< rejection, failure or mismatch
};

struct Measured
{
    std::vector<JobSample> samples;
    double wall = 0;
    std::uint64_t passes = 0;
    std::uint64_t peakParked = 0;
};

/**
 * kClients threads, each submitting its next job only when the
 * previous one is ready, until `next` runs dry.
 */
template <typename Next>
void
closedLoop(api::JobQueue &queue, Next &&next, bool sample_parked,
           Measured &m)
{
    std::mutex mutex;
    const auto client = [&] {
        for (;;) {
            std::optional<api::JobSpec> spec;
            {
                std::lock_guard<std::mutex> lock(mutex);
                spec = next();
            }
            if (!spec)
                return;
            JobSample s;
            s.spec = *spec;
            const auto t0 = Clock::now();
            auto future = queue.submit(std::move(*spec));
            s.admit = secondsSince(t0);
            const std::uint64_t parked =
                sample_parked ? queue.stats().scheduler.parked : 0;
            const api::JobReport report = future.get();
            s.latency = secondsSince(t0);
            s.queue = report.queueSeconds;
            s.exec = report.execSeconds;
            s.outcome = outcomeOf(report);
            if (report.comparison)
                s.warm = report.comparison->trace.traceCacheHit;
            else if (report.run)
                s.warm = report.run->trace.traceCacheHit;
            if (!report.ok)
                s.error = report.errors.empty()
                              ? "job failed"
                              : report.errors.front().field + ": " +
                                    report.errors.front().message;
            std::lock_guard<std::mutex> lock(mutex);
            m.peakParked = std::max(m.peakParked, parked);
            m.samples.push_back(std::move(s));
        }
    };
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (std::thread &t : clients)
        t.join();
}

/**
 * Passes of the catalogue streamed back to back until, at a pass
 * boundary, --seconds have passed and kMinJobs were submitted, so
 * every run measures whole passes. Traced and smoke runs stop after
 * one pass; a traced run also samples the scheduler's parked count.
 */
Measured
measure(const Workload &w, api::JobQueue &queue, const Options &opt)
{
    const bool one_pass = opt.trace || opt.smoke;
    Measured m;
    std::vector<api::JobSpec> jobs;
    std::size_t next = 0, submitted = 0;
    const auto t0 = Clock::now();
    closedLoop(
        queue,
        [&]() -> std::optional<api::JobSpec> {
            if (next == jobs.size()) {
                if (m.passes > 0 &&
                    (one_pass || (secondsSince(t0) >= opt.seconds &&
                                  submitted >= kMinJobs)))
                    return std::nullopt;
                jobs = passJobs(w, opt.seed, m.passes++);
                next = 0;
            }
            ++submitted;
            return jobs[next++];
        },
        opt.trace, m);
    m.wall = secondsSince(t0);
    return m;
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

/** Per-layer totals over the traced jobs. */
struct LayerTotals
{
    std::uint64_t jobs = 0;
    double stageWall = 0; ///< summed "job" span durations
    std::uint64_t functionalSetOpElements = 0;
    std::uint64_t events = 0, arenaBytes = 0, bytecodeBytes = 0;
    std::uint64_t cpuEvents = 0, scEvents = 0;
    std::map<std::string, std::size_t> workingSet; ///< key -> bytes
    HookProfile cpuHooks, scHooks;
    SimCounters sim;
};

api::RunResult
asRunResult(const trace::ReplayResult &r, std::uint64_t functional)
{
    api::RunResult out;
    out.functionalResult = functional;
    out.cycles = r.cycles;
    out.breakdown = r.breakdown;
    return out;
}

/** Run `leg` on a fresh backend of `substrate`, optionally through
 *  the hook timer, and fold the backend's counters into `sim`. */
template <typename Leg>
api::RunResult
onSubstrate(api::Substrate substrate, const arch::SparseCoreConfig &cfg,
            SimCounters *sim, HookProfile *hooks, Leg &&leg)
{
    const auto go = [&](auto &be) {
        api::RunResult r;
        if (hooks) {
            TimedBackend timed(be, *hooks);
            r = leg(timed);
        } else {
            r = leg(be);
        }
        if (sim)
            sim->add(be);
        return r;
    };
    if (substrate == api::Substrate::Cpu) {
        backend::CpuBackend be(cfg.core, cfg.mem);
        return go(be);
    }
    backend::SparseCoreBackend be(cfg);
    return go(be);
}

/**
 * One job through the stage, exec, decode and hook passes. Returns
 * the stage pass's outcome; `error` reports a failed resolve or hook
 * cycles that differ from the stage pass.
 */
Outcome
traceJob(const api::JobSpec &spec, std::uint64_t job, SpanLog &spans,
         LayerTotals &t, std::string &error)
{
    api::ArtifactStore &store = api::ArtifactStore::global();
    std::optional<api::ResolvedJob> rj;
    std::shared_ptr<const trace::BytecodeProgram> program;
    bool captured = false;
    std::size_t events = 0;
    std::vector<api::Substrate> substrates;
    if (spec.mode == api::JobMode::Compare)
        substrates = {api::Substrate::Cpu, api::Substrate::SparseCore};
    else
        substrates = {spec.substrate};
    std::map<api::Substrate, api::RunResult> results;
    Outcome out;
    bool direct = false;
    std::size_t job_span_index = 0;

    {
        const ScopedSpan job_span(spans, "job", job);
        job_span_index = job_span.index();
        {
            const ScopedSpan s(spans, "api.resolve", job);
            api::JobResolve r = api::resolveJob(spec);
            if (!r.ok()) {
                error = "resolve failed";
                return out;
            }
            rj = std::move(*r.job);
        }
        const std::string &key = rj->affinityKey;
        if (!key.empty() && spec.numSus) {
            if (const auto cached = store.peekTrace(key)) {
                const ScopedSpan s(spans, "analysis.summary", job);
                store.summary(key, cached->trace, rj->config);
            }
        }

        // Machine's routing: store-keyed jobs capture (or hit) and
        // replay; tensor jobs capture locally to compare and execute
        // directly to run.
        direct = key.empty() && spec.mode == api::JobMode::Run;
        if (direct) {
            for (const api::Substrate sub : substrates) {
                const bool cpu = sub == api::Substrate::Cpu;
                const ScopedSpan s(spans, cpu ? "direct.cpu" : "direct.sc",
                                   job);
                results[sub] = onSubstrate(
                    sub, rj->config, &t.sim, nullptr,
                    [&](backend::ExecBackend &be) {
                        return runWorkload(rj->request, be);
                    });
            }
            out.result = results.begin()->second.functionalResult;
        } else {
            std::shared_ptr<const api::ArtifactStore::CachedTrace> cached;
            std::optional<trace::Trace> local;
            {
                const ScopedSpan s(spans, "capture", job);
                if (!key.empty()) {
                    cached = storeTrace(key, rj->request, &captured);
                    out.result = cached->functionalResult;
                } else {
                    trace::TraceRecorder recorder;
                    out.result =
                        runWorkload(rj->request, recorder).functionalResult;
                    local = recorder.takeTrace();
                    captured = true;
                }
            }
            const trace::Trace &tr = cached ? cached->trace : *local;
            {
                const ScopedSpan s(spans, "compile", job);
                program = key.empty()
                              ? std::make_shared<const trace::BytecodeProgram>(
                                    trace::compileTrace(tr))
                              : store.program(key, tr);
            }
            events = tr.numEvents();
            t.events += events;
            t.arenaBytes += tr.arenaBytes();
            t.bytecodeBytes += program->codeBytes();
            if (!key.empty())
                t.workingSet[key] = tr.memoryBytes();
            for (const api::Substrate sub : substrates) {
                const bool cpu = sub == api::Substrate::Cpu;
                const ScopedSpan s(spans, cpu ? "replay.cpu" : "replay.sc",
                                   job);
                results[sub] = onSubstrate(
                    sub, rj->config, &t.sim, nullptr,
                    [&](backend::ExecBackend &be) {
                        return asRunResult(
                            trace::replayCompiled(*program, be, false),
                            out.result);
                    });
                (cpu ? t.cpuEvents : t.scEvents) += events;
            }
        }
        for (const auto &[sub, r] : results)
            (sub == api::Substrate::Cpu ? out.cpu : out.sc) = r.cycles;

        {
            const ScopedSpan s(spans, "api.emit", job);
            api::JobReport report;
            report.id = spec.id;
            report.spec = spec;
            report.ok = true;
            if (spec.mode == api::JobMode::Compare) {
                api::Comparison c;
                c.functionalResult = out.result;
                c.baseline = {"cpu", *out.cpu,
                              results[api::Substrate::Cpu].breakdown};
                c.accelerated = {"sparsecore", *out.sc,
                                 results[api::Substrate::SparseCore]
                                     .breakdown};
                c.trace.events = events;
                c.trace.replayMode = "bytecode";
                report.comparison = std::move(c);
            } else {
                report.run = results.begin()->second;
            }
            report.toJsonValue().dump();
        }
    }
    t.stageWall += spans.duration(job_span_index);
    ++t.jobs;

    if (captured) {
        const ScopedSpan s(spans, "capture.exec", job);
        backend::FunctionalBackend fb;
        runWorkload(rj->request, fb);
        t.functionalSetOpElements += fb.stats().get("setOpElements");
    }
    if (program) {
        const ScopedSpan s(spans, "replay.decode", job);
        NullBackend null;
        trace::replayCompiled(*program, null, false);
    }
    {
        const ScopedSpan s(spans, "backend.hooks", job);
        for (const api::Substrate sub : substrates) {
            const bool cpu = sub == api::Substrate::Cpu;
            const api::RunResult r = onSubstrate(
                sub, rj->config, nullptr, cpu ? &t.cpuHooks : &t.scHooks,
                [&](backend::ExecBackend &be) {
                    return direct ? runWorkload(rj->request, be)
                                  : asRunResult(trace::replayCompiled(
                                                    *program, be, false),
                                                out.result);
                });
            if (r.cycles != results[sub].cycles)
                error = "hook pass cycles differ from the stage pass";
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Nearest-rank percentile (0 when empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** The highest percentile (in steps of 0.01, at most 0.9) that still
 *  has ten samples beyond it. */
double
tailPercentile(std::size_t n)
{
    if (n <= 10)
        return 0.5;
    const double p =
        std::floor(100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n)) /
        100.0;
    return std::min(0.9, p);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::vector<double>
latencies(const std::vector<JobSample> &samples,
          std::optional<bool> warm = std::nullopt)
{
    std::vector<double> v;
    for (const JobSample &s : samples)
        if (!warm || s.warm == *warm)
            v.push_back(s.latency);
    return v;
}

double
speedupGmean(const std::vector<JobSample> &samples)
{
    double log_sum = 0;
    std::size_t n = 0;
    for (const JobSample &s : samples) {
        if (s.spec.mode != api::JobMode::Compare || !s.outcome.sc ||
            *s.outcome.sc == 0)
            continue;
        log_sum += std::log(static_cast<double>(*s.outcome.cpu) /
                            static_cast<double>(*s.outcome.sc));
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

std::vector<Metric>
endToEndMetrics(const Measured &m, double setup_s)
{
    const std::vector<double> lat = latencies(m.samples);
    return {
        {"setup_s", "s", setup_s},
        {"jobs_per_s", "jobs/s",
         ratio(static_cast<double>(m.samples.size()), m.wall)},
        {"job_p50_s", "s", percentile(lat, 0.5)},
        {"job_p90_s", "s", percentile(lat, tailPercentile(lat.size()))},
        {"peak_rss_mb", "MiB", peakRssMiB()},
        {"sim_speedup_gmean", "x", speedupGmean(m.samples)},
    };
}

std::vector<Metric>
layerMetrics(const Measured &untraced, const api::JobQueueStats &qs,
             const SpanLog &spans, const LayerTotals &t,
             const api::ArtifactStoreStats &before,
             const api::ArtifactStoreStats &after, double untraced_exec,
             std::size_t store_capacity)
{
    const double jobs = static_cast<double>(t.jobs);
    const double qjobs = static_cast<double>(untraced.samples.size());
    const auto per = [&](double v) { return ratio(v, jobs); };
    const auto self = [&](const std::string &n) { return spans.self(n); };
    const auto share = [&](double v) { return ratio(v, t.stageWall); };
    const auto mib = [](double bytes) { return bytes / (1024.0 * 1024.0); };
    double admit = 0, queue_wait = 0;
    for (const JobSample &s : untraced.samples) {
        admit += s.admit;
        queue_wait += s.queue;
    }
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(a - b);
    };
    const double trace_hits = delta(after.traces.hits, before.traces.hits);
    const double trace_misses =
        delta(after.traces.misses, before.traces.misses);
    const double prog_hits =
        delta(after.programs.hits, before.programs.hits);
    const double prog_misses =
        delta(after.programs.misses, before.programs.misses);
    double working_set = 0;
    for (const auto &[key, bytes] : t.workingSet)
        working_set += static_cast<double>(bytes);

    const double capture = self("capture");
    const double exec = self("capture.exec");
    const double replay_cpu = self("replay.cpu");
    const double replay_sc = self("replay.sc");
    const double direct = self("direct.cpu") + self("direct.sc");
    const double stage_self = t.stageWall - self("job");

    std::vector<Metric> m = {
        {"api.admit_s", "s", ratio(admit, qjobs)},
        {"api.resolve_s", "s", per(self("api.resolve"))},
        {"api.resolve_share", "ratio", share(self("api.resolve"))},
        {"api.queue_wait_s", "s", ratio(queue_wait, qjobs)},
        {"api.emit_s", "s", per(self("api.emit"))},
        {"api.emit_share", "ratio", share(self("api.emit"))},
        {"store.trace_hit_ratio", "ratio",
         ratio(trace_hits, trace_hits + trace_misses)},
        {"store.program_hit_ratio", "ratio",
         ratio(prog_hits, prog_hits + prog_misses)},
        {"store.evictions", "count",
         per(delta(after.traces.evictions, before.traces.evictions) +
             delta(after.programs.evictions, before.programs.evictions))},
        {"store.inflight_waits", "count",
         ratio(static_cast<double>(qs.traceWaits + qs.programWaits),
               qjobs)},
        {"store.budget_ratio", "ratio",
         ratio(static_cast<double>(store_capacity), working_set)},
        {"store.warm_job_p50_s", "s",
         percentile(latencies(untraced.samples, true), 0.5)},
        {"store.cold_job_p50_s", "s",
         percentile(latencies(untraced.samples, false), 0.5)},
        {"sched.parked", "count",
         static_cast<double>(untraced.peakParked)},
        {"sched.convoy_avoided", "count",
         ratio(static_cast<double>(qs.scheduler.convoyAvoided), qjobs)},
        {"analysis.summary_s", "s", per(self("analysis.summary"))},
        {"capture.exec_s", "s", per(exec)},
        {"capture.record_s", "s", per(std::max(0.0, capture - exec))},
        {"capture.share", "ratio", share(capture)},
        {"capture.setop_elements", "count",
         per(static_cast<double>(t.functionalSetOpElements))},
        {"trace.events", "count", per(static_cast<double>(t.events))},
        {"trace.arena_mb", "MiB",
         per(mib(static_cast<double>(t.arenaBytes)))},
        {"compile_s", "s", per(self("compile"))},
        {"compile.share", "ratio", share(self("compile"))},
        {"compile.bytecode_mb", "MiB",
         per(mib(static_cast<double>(t.bytecodeBytes)))},
        {"replay.decode_s", "s", per(self("replay.decode"))},
        {"replay.cpu_s", "s", per(replay_cpu)},
        {"replay.sc_s", "s", per(replay_sc)},
        {"replay.share", "ratio", share(replay_cpu + replay_sc)},
        {"replay.cpu_ns_per_event", "ns/event",
         1e9 * ratio(replay_cpu, static_cast<double>(t.cpuEvents))},
        {"replay.sc_ns_per_event", "ns/event",
         1e9 * ratio(replay_sc, static_cast<double>(t.scEvents))},
        {"direct_s", "s", per(direct)},
        {"direct.share", "ratio", share(direct)},
    };
    for (const auto &[sub, hooks] :
         {std::pair{"cpu", &t.cpuHooks}, std::pair{"sc", &t.scHooks}})
        for (std::size_t f = 0; f < kHookFamilies; ++f)
            m.push_back({std::string("backend.") + sub + "." +
                             hookFamilyName(static_cast<HookFamily>(f)) +
                             "_s",
                         "s", per(hooks->seconds[f])});
    for (std::size_t f = 0; f < kHookFamilies; ++f)
        m.push_back({std::string("backend.") +
                         hookFamilyName(static_cast<HookFamily>(f)) +
                         "_calls",
                     "count",
                     per(static_cast<double>(t.cpuHooks.calls[f] +
                                             t.scHooks.calls[f]))});
    const SimCounters &c = t.sim;
    const auto count = [&](std::uint64_t v) {
        return per(static_cast<double>(v));
    };
    const auto hit = [](std::uint64_t hits, std::uint64_t misses) {
        return ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses));
    };
    const std::vector<Metric> sim = {
        {"arch.stream_instructions", "count", count(c.streamInstructions)},
        {"arch.setop_elements", "count", count(c.setOpElements)},
        {"arch.smt_spills", "count", count(c.smtSpills)},
        {"arch.smt_alloc_stalls", "count", count(c.smtAllocStalls)},
        {"arch.smt_virt_stalls", "count", count(c.smtVirtStalls)},
        {"arch.scache_refill_lines", "count", count(c.scacheRefillLines)},
        {"arch.scache_prefetch_lines", "count",
         count(c.scachePrefetchLines)},
        {"arch.scache_writeback_lines", "count",
         count(c.scacheWritebackLines)},
        {"arch.scratchpad_hit_ratio", "ratio",
         hit(c.scratchpadHits, c.scratchpadMisses)},
        {"sim.cpu.l1_accesses", "count",
         count(c.cpuL1Hits + c.cpuL1Misses)},
        {"sim.cpu.l1_hit_ratio", "ratio", hit(c.cpuL1Hits, c.cpuL1Misses)},
        {"sim.cpu.l2_hit_ratio", "ratio", hit(c.cpuL2Hits, c.cpuL2Misses)},
        {"sim.cpu.l3_hit_ratio", "ratio", hit(c.cpuL3Hits, c.cpuL3Misses)},
        {"sim.cpu.mem_accesses", "count", count(c.cpuMemAccesses)},
        {"sim.cpu.mispredict_ratio", "ratio",
         ratio(static_cast<double>(c.cpuMispredicts),
               static_cast<double>(c.cpuBranches))},
        {"sim.sc.l1_accesses", "count", count(c.scL1Accesses)},
        {"sim.sc.l2_accesses", "count", count(c.scL2Accesses)},
        {"sim.sc.mem_accesses", "count", count(c.scMemAccesses)},
        {"trace.stage_sum_share", "ratio", share(stage_self)},
        {"trace.overhead_ratio", "ratio", ratio(t.stageWall, untraced_exec)},
    };
    m.insert(m.end(), sim.begin(), sim.end());
    return m;
}

std::string
number(double v)
{
    return std::isfinite(v) ? strprintf("%.17g", v) : "0";
}

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = strprintf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    const char *sep = "";
    for (const Metric &m : metrics) {
        out += strprintf("%s%s: {\"value\": %s, \"unit\": %s}", sep,
                         jsonQuote(m.name).c_str(),
                         number(m.value).c_str(),
                         jsonQuote(m.unit).c_str());
        sep = ", ";
    }
    return out + "}}";
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
runBenchmark(const Options &opt, const Workload &w)
{
    const Golden golden = loadGolden(opt.golden);
    setUp(w);
    const double setup_s = secondsSince(kProcessStart);
    if (opt.setupOnly) {
        std::printf("{\"setup_s\": %s}\n", number(setup_s).c_str());
        return 0;
    }

    std::printf("pipeline_bench %s seed %llu%s%s: JobQueue %u workers, "
                "%u clients, SC_HOST_THREADS=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.smoke ? " (smoke)" : "", opt.trace ? " (traced)" : "",
                kQueueWorkers, kClients, kHostThreads);

    Measured m;
    api::JobQueueStats qs;
    {
        api::JobQueue queue(kQueueWorkers, api::SchedPolicy::Affinity);
        m = measure(w, queue, opt);
        qs = queue.stats();
    }

    std::vector<std::string> errors;
    std::size_t attempted = m.samples.size();
    std::map<std::string, const JobSample *> untraced_by_id;
    for (JobSample &s : m.samples) {
        if (s.error.empty())
            s.error = goldenMismatch(golden, s.spec, s.outcome);
        if (!s.error.empty())
            errors.push_back(s.spec.id + ": " + s.error);
        untraced_by_id[s.spec.id] = &s;
    }

    std::vector<Metric> metrics;
    std::string extra;
    if (!opt.trace) {
        metrics = endToEndMetrics(m, setup_s);
        const std::vector<double> warm = latencies(m.samples, true);
        const std::vector<double> cold = latencies(m.samples, false);
        extra = strprintf(
            "  %zu jobs in %llu passes over %.3f s; p90 is p%.0f of n=%zu; "
            "warm p50 %.6f s (n=%zu), cold p50 %.6f s (n=%zu); store "
            "traces %llu hits / %llu misses; failed_frac %.6f\n",
            m.samples.size(), static_cast<unsigned long long>(m.passes),
            m.wall, 100 * tailPercentile(m.samples.size()),
            m.samples.size(), percentile(warm, 0.5), warm.size(),
            percentile(cold, 0.5), cold.size(),
            static_cast<unsigned long long>(qs.traceHits),
            static_cast<unsigned long long>(qs.traceMisses),
            ratio(static_cast<double>(errors.size()),
                  static_cast<double>(attempted)));
    } else {
        // The traced pass starts from the store state the untraced
        // pass started from.
        if (!w.warmStore)
            api::ArtifactStore::global().clear();
        const auto jobs = passJobs(w, opt.seed, 0);
        SpanLog spans;
        LayerTotals totals;
        const api::ArtifactStoreStats before =
            api::ArtifactStore::global().stats();
        double untraced_exec = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::string error;
            const Outcome o = traceJob(jobs[i], i, spans, totals, error);
            const auto it = untraced_by_id.find(jobs[i].id);
            if (it != untraced_by_id.end()) {
                untraced_exec += it->second->exec;
                if (error.empty() && !(o == it->second->outcome))
                    error = "traced outcome differs from the untraced job";
            }
            if (error.empty())
                error = goldenMismatch(golden, jobs[i], o);
            if (!error.empty())
                errors.push_back("traced " + jobs[i].id + ": " + error);
        }
        attempted += jobs.size();
        const api::ArtifactStoreStats after =
            api::ArtifactStore::global().stats();
        metrics = layerMetrics(m, qs, spans, totals, before, after,
                               untraced_exec, after.traces.capacityBytes);
        const double stage_share = ratio(totals.stageWall - spans.self("job"),
                                         totals.stageWall);
        if (stage_share < 0.95)
            errors.push_back(strprintf("stage spans cover %.3f of the "
                                       "traced job wall (need >= 0.95)",
                                       stage_share));
        std::filesystem::create_directories(opt.outDir);
        const std::string spans_path =
            strprintf("%s/spans-%s-seed%llu.json", opt.outDir.c_str(),
                      w.name.c_str(),
                      static_cast<unsigned long long>(opt.seed));
        if (!spans.writeChromeTrace(spans_path))
            errors.push_back("cannot write " + spans_path);
        extra = strprintf("  traced %zu jobs: stage wall %.3f s vs "
                          "untraced exec %.3f s; spans in %s\n",
                          jobs.size(), totals.stageWall, untraced_exec,
                          spans_path.c_str());
    }

    printMetrics(metrics);
    std::fputs(extra.c_str(), stdout);
    std::fflush(stdout);
    for (std::size_t i = 0; i < errors.size() && i < 10; ++i)
        std::fprintf(stderr, "FAIL %s\n", errors[i].c_str());
    const bool correct = errors.empty();
    std::printf("%s\n",
                resultJson(correct, attempted, errors.size(), metrics)
                    .c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        // Catalogues are plain data: building one reads no library
        // configuration, so the environment can still be pinned.
        std::optional<Workload> workload;
        if (!opt.blessGolden)
            workload = makeWorkload(opt.workload, opt.smoke);
        pinEnvironment(workload ? workload->storeBytes : 0);
        setVerbose(false);
        if (opt.blessGolden)
            return blessGolden(opt.golden);
        return runBenchmark(opt, *workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
        return 1;
    }
}
