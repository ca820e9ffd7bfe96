/**
 * @file
 * Simulation-as-a-service front end: JSON job descriptions in, JSON
 * reports out.
 *
 * Reads one JobSpec per line from stdin (jsonl; blank lines and
 * #-comments skipped), submits the batch to an api::JobQueue, and
 * after EOF prints one JSON report per job on stdout in submission
 * order. Jobs sharing a dataset share the process-wide ArtifactStore:
 * the first one captures the trace and compiles the bytecode, the
 * rest replay warm artifacts — queue stats (--stats) expose the hit
 * counts. A malformed job produces a report with structured errors;
 * it never aborts the batch (exit status is 1 if any job failed,
 * 0 otherwise).
 *
 * Flags:
 *   --jobs-threads N  queue worker threads (default 0 = the shared
 *                     global pool; 1 = inline, in submission order)
 *   --sched P         scheduling policy: fifo | affinity (default:
 *                     SC_JOB_SCHED, which defaults to affinity)
 *   --sequential      bypass the queue: resolve + run each job
 *                     inline with Machine — the bit-identity
 *                     reference the check.sh smoke leg diffs against
 *   --no-timing       omit wall-clock and cache-hit fields from the
 *                     reports (byte-diffable across queue widths)
 *   --stats           append one final jsonl line {"stats": ...}
 *
 * Example session:
 *   $ printf '%s\n' \
 *     '{"version":1,"workload":"gpm","app":"T","dataset":"W"}' \
 *     '{"version":1,"workload":"spmspm","dataset":"C"}' \
 *     | example_sparsecore_server --stats
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/job_queue.hh"
#include "common/logging.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs-threads N] [--sched "
                 "fifo|affinity] [--sequential] "
                 "[--no-timing] [--stats]\n"
                 "reads one JSON job per line on stdin, writes one "
                 "JSON report per job on stdout\n",
                 argv0);
    std::exit(2);
}

/** The --sequential reference path: admission + execution inline,
 *  no queue. Reports are built the same way JobQueue builds them, so
 *  --no-timing output is byte-identical when the jobs are. */
sc::api::JobReport
runSequential(const std::string &line)
{
    using namespace sc;
    api::JobReport report;
    api::JobSpecParse parsed = api::parseJobSpec(line);
    if (!parsed.ok()) {
        report.errors = std::move(parsed.errors);
        return report;
    }
    report.id = parsed.spec->id;
    report.spec = *parsed.spec;
    api::JobResolve resolved = api::resolveJob(*parsed.spec);
    if (!resolved.ok()) {
        report.errors = std::move(resolved.errors);
        return report;
    }
    try {
        api::Machine machine(resolved.job->config);
        if (resolved.job->spec.mode == api::JobMode::Run)
            report.run = machine.run(resolved.job->request,
                                     resolved.job->spec.substrate);
        else
            report.comparison =
                machine.compare(resolved.job->request);
        report.ok = true;
    } catch (const std::exception &e) {
        report.errors.push_back({"", e.what()});
    }
    return report;
}

/** Stdin lines that are jobs (blank lines and #-comments skipped). */
std::vector<std::string>
readJobLines()
{
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(std::cin, line))
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sc;
    setVerbose(false);

    unsigned jobs_threads = 0;
    std::optional<api::SchedPolicy> policy;
    bool sequential = false;
    bool timing = true;
    bool stats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs-threads") {
            if (i + 1 >= argc)
                usage(argv[0]);
            jobs_threads =
                static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--sched") {
            if (i + 1 >= argc)
                usage(argv[0]);
            policy = api::parseSchedPolicy(argv[++i]);
            if (!policy)
                usage(argv[0]);
        } else if (arg == "--sequential") {
            sequential = true;
        } else if (arg == "--no-timing") {
            timing = false;
        } else if (arg == "--stats") {
            stats = true;
        } else {
            usage(argv[0]);
        }
    }

    const std::vector<std::string> lines = readJobLines();
    std::vector<api::JobReport> reports;
    reports.reserve(lines.size());
    std::optional<JsonValue> stats_value;

    if (sequential) {
        for (const std::string &line : lines)
            reports.push_back(runSequential(line));
        if (stats) {
            // No queue in this mode; report the store counters only.
            const api::ArtifactStoreStats s =
                api::ArtifactStore::global().stats();
            JsonValue store = JsonValue::object();
            store.set("trace_hits", JsonValue::number(s.traces.hits));
            store.set("trace_misses",
                      JsonValue::number(s.traces.misses));
            JsonValue as = JsonValue::object();
            as.set("artifact_store", std::move(store));
            stats_value = std::move(as);
        }
    } else {
        api::JobQueue queue(jobs_threads, policy);
        std::vector<std::future<api::JobReport>> futures;
        futures.reserve(lines.size());
        for (const std::string &line : lines)
            futures.push_back(queue.submitJson(line));
        for (auto &f : futures)
            reports.push_back(f.get());
        if (stats)
            stats_value = queue.stats().toJsonValue();
    }

    bool any_failed = false;
    for (const api::JobReport &r : reports) {
        any_failed |= !r.ok;
        std::printf("%s\n", r.toJsonValue(timing).dump().c_str());
    }
    if (stats_value) {
        JsonValue out = JsonValue::object();
        out.set("stats", std::move(*stats_value));
        std::printf("%s\n", out.dump().c_str());
    }
    return any_failed ? 1 : 0;
}
