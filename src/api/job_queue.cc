#include "api/job_queue.hh"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "analysis/diagnostics.hh"
#include "common/config.hh"
#include "common/logging.hh"

namespace sc::api {

namespace {

double
secondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Percentile over a sample vector (nearest-rank; 0 when empty). */
double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    const std::size_t rank = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(
                                         samples.size())));
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(rank),
                     samples.end());
    return samples[rank];
}

/** Concurrent-execution cap for the scheduler: how many jobs the
 *  queue's pool can actually run at once. */
unsigned
schedSlots(unsigned workers)
{
    if (workers == 0)
        return std::max(1u, ThreadPool::global().numWorkers());
    if (workers == 1)
        return 1; // inline at submit(): strictly sequential
    return workers;
}

} // namespace

JsonValue
JobReport::toJsonValue(bool include_timing) const
{
    JsonValue out = JsonValue::object();
    out.set("id", JsonValue::str(id));
    out.set("ok", JsonValue::boolean(ok));
    out.set("workload",
            JsonValue::str(workloadName(spec.workload)));
    out.set("mode", JsonValue::str(jobModeName(spec.mode)));
    if (!spec.dataset.empty())
        out.set("dataset", JsonValue::str(spec.dataset));
    if (!errors.empty()) {
        JsonValue errs = JsonValue::array();
        for (const JobDiag &e : errors)
            errs.push(e.toJsonValue());
        out.set("errors", std::move(errs));
    }
    if (run) {
        JsonValue r = jsonValue(*run);
        if (!include_timing)
            r.remove("trace");
        out.set("run", std::move(r));
    }
    if (comparison) {
        JsonValue c = jsonValue(*comparison);
        if (!include_timing)
            c.remove("trace");
        out.set("compare", std::move(c));
    }
    if (include_timing) {
        out.set("queue_seconds", JsonValue::number(queueSeconds));
        out.set("exec_seconds", JsonValue::number(execSeconds));
    }
    return out;
}

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      rng_(0x9e3779b97f4a7c15ULL)
{
}

void
LatencyReservoir::record(double seconds)
{
    ++seen_;
    if (samples_.size() < capacity_) {
        samples_.push_back(seconds);
        return;
    }
    // Algorithm R: replace a random slot with probability
    // capacity/seen, so every observation is retained with equal
    // probability. Deterministic xorshift64 — percentiles of a
    // given stream are reproducible.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t slot = rng_ % seen_;
    if (slot < capacity_)
        samples_[static_cast<std::size_t>(slot)] = seconds;
}

std::string
JobQueueStats::str() const
{
    std::ostringstream os;
    os << "jobs: " << submitted << " submitted | " << rejected
       << " rejected | " << completed << " completed | " << failed
       << " failed";
    if (cancelled)
        os << " | " << cancelled << " cancelled";
    os << " | " << jobsPerSecond << " jobs/s";
    os << " | latency p50 " << p50LatencySeconds * 1e3 << " ms, p99 "
       << p99LatencySeconds * 1e3 << " ms";
    os << " | store: traces " << traceHits << " hits / "
       << traceMisses << " misses, su costs " << suCostHits
       << " hits / " << suCostMisses << " misses (" << suCostBytes
       << " bytes)";
    os << " | verify: " << verifyChecked << " checked, "
       << verifyRejected << " program / " << pressureRejected
       << " pressure rejects, " << verdictHits
       << " re-checks skipped";
    os << " | sched " << schedPolicyName(scheduler.policy) << ": "
       << scheduler.warmers << " warmers, " << scheduler.convoyAvoided
       << " convoys avoided, " << traceWaits << " store waits";
    return os.str();
}

JsonValue
JobQueueStats::toJsonValue() const
{
    JsonValue out = JsonValue::object();
    out.set("submitted", JsonValue::number(submitted));
    out.set("rejected", JsonValue::number(rejected));
    out.set("completed", JsonValue::number(completed));
    out.set("failed", JsonValue::number(failed));
    out.set("cancelled", JsonValue::number(cancelled));
    out.set("wall_seconds", JsonValue::number(wallSeconds));
    out.set("jobs_per_second", JsonValue::number(jobsPerSecond));
    out.set("p50_latency_seconds",
            JsonValue::number(p50LatencySeconds));
    out.set("p99_latency_seconds",
            JsonValue::number(p99LatencySeconds));
    JsonValue store = JsonValue::object();
    store.set("trace_hits", JsonValue::number(traceHits));
    store.set("trace_misses", JsonValue::number(traceMisses));
    store.set("trace_waits", JsonValue::number(traceWaits));
    store.set("verdict_hits", JsonValue::number(verdictHits));
    store.set("verdict_misses", JsonValue::number(verdictMisses));
    store.set("su_cost_hits", JsonValue::number(suCostHits));
    store.set("su_cost_misses", JsonValue::number(suCostMisses));
    store.set("su_cost_bytes", JsonValue::number(suCostBytes));
    out.set("artifact_store", std::move(store));
    JsonValue verify = JsonValue::object();
    verify.set("checked", JsonValue::number(verifyChecked));
    verify.set("program_rejected",
               JsonValue::number(verifyRejected));
    verify.set("pressure_rejected",
               JsonValue::number(pressureRejected));
    out.set("verify", std::move(verify));
    JsonValue sched = JsonValue::object();
    sched.set("policy",
              JsonValue::str(schedPolicyName(scheduler.policy)));
    sched.set("inflight", JsonValue::number(scheduler.inflight));
    sched.set("parked", JsonValue::number(scheduler.parked));
    sched.set("waiting_for_slot",
              JsonValue::number(scheduler.waitingForSlot));
    sched.set("warmers", JsonValue::number(scheduler.warmers));
    sched.set("convoy_avoided",
              JsonValue::number(scheduler.convoyAvoided));
    sched.set("cancelled", JsonValue::number(scheduler.cancelled));
    JsonValue lanes = JsonValue::array();
    for (const auto &[dataset, jobs] : scheduler.laneJobs) {
        JsonValue lane = JsonValue::object();
        lane.set("dataset", JsonValue::str(dataset));
        lane.set("jobs", JsonValue::number(jobs));
        lanes.push(std::move(lane));
    }
    sched.set("lanes", std::move(lanes));
    out.set("scheduler", std::move(sched));
    return out;
}

SchedPolicy
JobQueue::defaultPolicy()
{
    // The loader rejected anything but fifo|affinity at startup.
    const auto parsed = parseSchedPolicy(config().jobSched);
    return parsed ? *parsed : SchedPolicy::Affinity;
}

JobQueue::JobQueue(unsigned workers, std::optional<SchedPolicy> policy)
    : start_(std::chrono::steady_clock::now()),
      store_before_(ArtifactStore::global().stats()),
      sched_(policy ? *policy : defaultPolicy(), schedSlots(workers))
{
    // workers here means *concurrent executors*: a dedicated pool of
    // N >= 2 spawns N worker threads (ThreadPool counts the caller,
    // which never executes queue jobs, so size up by one).
    if (workers == 1)
        own_pool_.emplace(1);
    else if (workers >= 2)
        own_pool_.emplace(workers + 1);
}

JobQueue::~JobQueue()
{
    drain();
}

std::future<JobReport>
JobQueue::reject(JobReport &&report)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
        ++rejected_;
    }
    std::promise<JobReport> done;
    auto future = done.get_future();
    done.set_value(std::move(report));
    return future;
}

std::future<JobReport>
JobQueue::submit(JobSpec spec)
{
    const auto admitted = std::chrono::steady_clock::now();

    JobReport report;
    report.id = spec.id;
    report.spec = spec;

    // Admission: resolve dataset references now, on the submitter's
    // thread — a bad reference fails this job before it costs a pool
    // slot, and the resolved shared_ptrs pin the data for the task.
    JobResolve resolved = resolveJob(spec);
    if (!resolved.ok()) {
        report.errors = std::move(resolved.errors);
        return reject(std::move(report));
    }

    // Admission-time verification, for jobs whose program is already
    // resident in the store (a warm dataset): the cached verdict and
    // pressure summary are cheap to consult here, so a program that
    // breaks the stream-lifetime contract — or exceeds the arch
    // limits the job itself declared — is rejected with structured
    // JobDiags before it costs a scheduler slot. Cold jobs verify at
    // execution exactly as before (the program does not exist yet), and
    // jobs that declare no arch limits are never pressure-rejected.
    ArtifactStore &store = ArtifactStore::global();
    const std::string &key = resolved.job->affinityKey;
    if (const auto cached = store.peekTrace(key)) {
        const arch::SparseCoreConfig &cfg = resolved.job->config;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++verifyChecked_;
        }
        if (spec.options.verify.value_or(analysis::verifyByDefault())) {
            const auto verdict =
                store.verdict(key, cached->trace, cfg.numStreamRegs);
            if (verdict->hasErrors()) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++verifyRejected_;
                }
                report.errors.push_back({"program", verdict->format()});
                return reject(std::move(report));
            }
        }
        if (spec.numSus) {
            const auto summary = store.summary(key, cached->trace, cfg);
            if (summary->maxPressure > *spec.numSus) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++pressureRejected_;
                }
                report.errors.push_back(
                    {"arch.sus",
                     strprintf("peak live-stream pressure %u (first at "
                               "event %llu) exceeds the declared "
                               "arch.sus budget of %u",
                               summary->maxPressure,
                               static_cast<unsigned long long>(
                                   summary->maxPressurePc),
                               *spec.numSus)});
                return reject(std::move(report));
            }
        }
    }

    Pending pending;
    pending.job =
        std::make_shared<ResolvedJob>(std::move(*resolved.job));
    pending.done = std::make_shared<std::promise<JobReport>>();
    pending.admitted = admitted;
    auto future = pending.done->get_future();

    std::uint64_t seq = 0;
    bool dispatch_now = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
        ++pending_;
        seq = nextSeq_++;
        dispatch_now =
            sched_.admit(seq, pending.job->affinityKey,
                         pending.job->spec.priority, admitted);
        if (!dispatch_now)
            held_.emplace(seq, std::move(pending));
    }
    if (dispatch_now)
        dispatch(seq, std::move(pending));
    return future;
}

std::future<JobReport>
JobQueue::submitJson(std::string_view json_text)
{
    JobSpecParse parsed = parseJobSpec(json_text);
    if (!parsed.ok()) {
        JobReport report;
        report.errors = std::move(parsed.errors);
        return reject(std::move(report));
    }
    return submit(std::move(*parsed.spec));
}

void
JobQueue::dispatch(std::uint64_t seq, Pending &&pending)
{
    // Never called with mutex_ held: a size-1 pool runs the task —
    // and the whole job — inline right here.
    pool().submit([this, seq, pending = std::move(pending)] {
        execute(seq, pending);
    });
}

void
JobQueue::execute(std::uint64_t seq, const Pending &pending)
{
    const auto started = std::chrono::steady_clock::now();
    const ResolvedJob &job = *pending.job;

    JobReport report;
    report.id = job.spec.id;
    report.spec = job.spec;
    report.queueSeconds = secondsBetween(pending.admitted, started);

    // An exception escaping a ThreadPool task is fatal; everything a
    // job can throw (SimError from fatal(), VerifyError, bad_alloc)
    // must land in the report instead — one broken job must not take
    // down the batch.
    try {
        Machine machine(job.config);
        if (job.spec.mode == JobMode::Run)
            report.run = machine.run(job.request, job.spec.substrate);
        else
            report.comparison = machine.compare(job.request);
        report.ok = true;
    } catch (const analysis::VerifyError &e) {
        report.errors.push_back(
            {"", std::string("verifier: ") + e.what()});
    } catch (const std::exception &e) {
        report.errors.push_back({"", e.what()});
    }

    const auto finished = std::chrono::steady_clock::now();
    report.execSeconds = secondsBetween(started, finished);

    // Tell the scheduler this slot is free; it hands back the jobs to
    // dispatch next (a completed warmer releases its parked lane).
    std::vector<std::pair<std::uint64_t, Pending>> next;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (report.ok)
            ++completed_;
        else
            ++failed_;
        latencies_.record(secondsBetween(pending.admitted, finished));
        for (const std::uint64_t s : sched_.onComplete(seq, finished)) {
            const auto it = held_.find(s);
            if (it == held_.end())
                continue; // cancelled between decisions: impossible
                          // today (both run under mutex_), belt only
            next.emplace_back(s, std::move(it->second));
            held_.erase(it);
        }
    }
    pending.done->set_value(std::move(report));
    for (auto &[s, p] : next)
        dispatch(s, std::move(p));
    // Count this job done only after its future is satisfied, so a
    // returning drain() means every future is ready, not just every
    // execution finished.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            idle_.notify_all();
    }
}

std::size_t
JobQueue::cancel(const std::string &id)
{
    std::vector<Pending> dropped;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = held_.begin(); it != held_.end();) {
            if (it->second.job->spec.id == id &&
                sched_.cancel(it->first)) {
                dropped.push_back(std::move(it->second));
                it = held_.erase(it);
            } else {
                ++it;
            }
        }
        cancelled_ += dropped.size();
    }
    for (Pending &pending : dropped) {
        JobReport report;
        report.id = pending.job->spec.id;
        report.spec = pending.job->spec;
        report.errors.push_back(
            {"", "cancelled by JobQueue::cancel()"});
        pending.done->set_value(std::move(report));
    }
    if (!dropped.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_ -= dropped.size();
        if (pending_ == 0)
            idle_.notify_all();
    }
    return dropped.size();
}

void
JobQueue::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
}

JobQueueStats
JobQueue::stats() const
{
    JobQueueStats out;
    std::vector<double> latencies;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.submitted = submitted_;
        out.rejected = rejected_;
        out.completed = completed_;
        out.failed = failed_;
        out.cancelled = cancelled_;
        out.verifyChecked = verifyChecked_;
        out.verifyRejected = verifyRejected_;
        out.pressureRejected = pressureRejected_;
        out.scheduler = sched_.stats();
        latencies = latencies_.samples();
    }
    out.wallSeconds =
        secondsBetween(start_, std::chrono::steady_clock::now());
    const std::uint64_t finished = out.completed + out.failed;
    out.jobsPerSecond = out.wallSeconds > 0
                            ? static_cast<double>(finished) /
                                  out.wallSeconds
                            : 0;
    out.p50LatencySeconds = percentile(latencies, 0.50);
    out.p99LatencySeconds = percentile(latencies, 0.99);

    const ArtifactStoreStats now = ArtifactStore::global().stats();
    out.traceHits = now.traces.hits - store_before_.traces.hits;
    out.traceMisses = now.traces.misses - store_before_.traces.misses;
    out.traceWaits = now.traces.inflightWaits -
                     store_before_.traces.inflightWaits;
    out.verdictHits = now.verdicts.hits - store_before_.verdicts.hits;
    out.verdictMisses =
        now.verdicts.misses - store_before_.verdicts.misses;
    out.suCostHits = now.suCosts.hits - store_before_.suCosts.hits;
    out.suCostMisses = now.suCosts.misses - store_before_.suCosts.misses;
    out.suCostBytes = now.suCosts.bytes;
    return out;
}

} // namespace sc::api
