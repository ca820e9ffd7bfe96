/**
 * @file
 * api::JobQueue — the batched, multi-tenant job runtime on top of
 * Machine.
 *
 * Submitters hand in JobSpecs (or raw JSON job descriptions) and get
 * std::futures of per-job JobReports back; execution is asynchronous
 * on the existing work-stealing ThreadPool. Every job routes through
 * the process-wide ArtifactStore, so a batch of jobs naming one
 * dataset captures its program exactly once — the rest of the batch
 * replays warm artifacts (the queue-level
 * stats expose the hit counts).
 *
 * Dispatch order is decided by a pluggable JobScheduler
 * (api/scheduler.hh; SchedPolicy::Affinity by default, SC_JOB_SCHED
 * or the constructor select): affinity scheduling parks jobs whose
 * dataset artifacts are being produced by a sibling (the lane's
 * designated warmer) instead of stacking pool workers on the store's
 * in-flight dedup, spreads distinct datasets across workers so cold
 * captures overlap with warm replays, honors JobSpec::priority with
 * starvation-free aging, and supports cancel(id) for jobs the
 * scheduler still holds.
 *
 * Admission is synchronous and strict: the spec is validated and its
 * dataset references resolved against the registries on the
 * submitter's thread. A malformed or unresolvable job comes back as
 * an already-satisfied future carrying structured JobDiags — it
 * never reaches the pool and never aborts the batch. Execution
 * errors (verifier violations, internal errors) are likewise caught
 * and reported per job; ThreadPool::submit would make an escaping
 * exception fatal, so the task wrapper must never leak one.
 *
 * Determinism: simulated cycles and functional results of a job are
 * bit-identical to a sequential Machine::run / compare of the same
 * spec, regardless of scheduling policy, queue width, priorities or
 * artifact sharing (the PR-2/PR-7/PR-8 replay invariants). Only host
 * wall-clock moves. A JobQueue with workers=1 additionally executes
 * jobs in submission order on the submitting thread (a size-1 pool
 * runs submitted tasks inline), which the check.sh smoke leg uses to
 * pin deterministic store hit counts.
 */

#ifndef SPARSECORE_API_JOB_QUEUE_HH
#define SPARSECORE_API_JOB_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/artifact_store.hh"
#include "api/jobspec.hh"
#include "api/machine.hh"
#include "api/scheduler.hh"
#include "common/thread_pool.hh"

namespace sc::api {

/** Outcome of one job: a result or structured diagnostics. */
struct JobReport
{
    std::string id;  ///< echoed from the spec (may be empty)
    JobSpec spec;    ///< the spec as admitted
    bool ok = false; ///< result present, no errors

    /** Admission (parse/validate/resolve) or execution errors. */
    std::vector<JobDiag> errors;

    /** mode=Run result (exactly one of run/comparison is set). */
    std::optional<RunResult> run;
    /** mode=Compare result. */
    std::optional<Comparison> comparison;

    double queueSeconds = 0; ///< admission -> execution start
    double execSeconds = 0;  ///< execution start -> completion

    /**
     * The one JSON shape for job outcomes (the server's jsonl lines).
     * `include_timing` = false omits host wall-clock and cache-hit
     * fields so reports are byte-diffable across queue widths,
     * scheduling policies and warm/cold stores — everything left is
     * deterministic.
     */
    JsonValue toJsonValue(bool include_timing = true) const;
};

/**
 * Fixed-capacity uniform sample of a latency stream (Vitter's
 * algorithm R with a deterministic xorshift generator), so a
 * long-running server's percentile tracking stays O(capacity) in
 * memory instead of growing with every finished job. Nearest-rank
 * p50/p99 over the reservoir converge on the stream's percentiles.
 * Not thread-safe: the owner serializes record() under its mutex.
 */
class LatencyReservoir
{
  public:
    explicit LatencyReservoir(std::size_t capacity = 4096);

    void record(double seconds);

    /** Latencies observed (recorded, not necessarily retained). */
    std::uint64_t count() const { return seen_; }
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::size_t capacity_;
    std::vector<double> samples_;
    std::uint64_t seen_ = 0;
    std::uint64_t rng_;
};

/** Queue-level statistics (see str()/toJsonValue()). */
struct JobQueueStats
{
    std::uint64_t submitted = 0; ///< submit() calls
    std::uint64_t rejected = 0;  ///< failed admission
    std::uint64_t completed = 0; ///< executed OK
    std::uint64_t failed = 0;    ///< executed with errors
    std::uint64_t cancelled = 0; ///< held jobs cancelled
    double wallSeconds = 0;      ///< queue lifetime so far
    double jobsPerSecond = 0;    ///< completed+failed per wall second
    /** Latency = admission to completion, over finished jobs
     *  (nearest-rank over a bounded uniform reservoir). */
    double p50LatencySeconds = 0;
    double p99LatencySeconds = 0;
    /** ArtifactStore counter deltas over the queue's lifetime. */
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;
    /** Store in-flight dedup waits: a pool worker blocked on a build
     *  another thread was already running — exactly the convoy the
     *  affinity policy exists to avoid (it parks instead). */
    std::uint64_t traceWaits = 0;
    /** Reads zero: there is no program build to wait on.
     *  bench/pipeline compiles against this field. */
    std::uint64_t programWaits = 0;
    /** Verified-bit cache deltas: verdictHits = re-checks skipped. */
    std::uint64_t verdictHits = 0;
    std::uint64_t verdictMisses = 0;
    /** SU cost column cache deltas (a miss builds a column) and the
     *  columns' resident bytes at the snapshot. */
    std::uint64_t suCostHits = 0;
    std::uint64_t suCostMisses = 0;
    std::uint64_t suCostBytes = 0;
    /** Admission-time verification (warm-trace jobs only):
     *  verifyChecked counts jobs whose resident trace was checked at
     *  submit(); verifyRejected / pressureRejected split the
     *  rejections between lifetime-rule failures ("program") and
     *  declared-arch-limit pressure overflows ("arch.sus"). */
    std::uint64_t verifyChecked = 0;
    std::uint64_t verifyRejected = 0;
    std::uint64_t pressureRejected = 0;
    /** Scheduler observability (policy, parked/warmer/convoy
     *  counters, per-dataset batch sizes). */
    SchedulerStats scheduler;

    std::string str() const;
    JsonValue toJsonValue() const;
};

/**
 * The batched job runtime. Thread-safe: any number of submitter
 * threads may call submit()/cancel()/stats() concurrently. The
 * destructor drains (waits for every admitted job — running, parked
 * or waiting for a slot — to finish).
 */
class JobQueue
{
  public:
    /**
     * @param workers 0 = execute on the shared global ThreadPool;
     *        1 = inline at submit(), in order; N >= 2 = a dedicated
     *        pool of N worker threads for this queue.
     * @param policy scheduling policy; nullopt = SC_JOB_SCHED
     *        (default affinity).
     */
    explicit JobQueue(unsigned workers = 0,
                      std::optional<SchedPolicy> policy = std::nullopt);
    ~JobQueue();

    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /** The policy this queue schedules with. */
    SchedPolicy policy() const { return sched_.policy(); }

    /** SC_JOB_SCHED (validated by the config loader; default
     *  affinity). */
    static SchedPolicy defaultPolicy();

    /**
     * Admit one job: validate + resolve now, execute asynchronously.
     * The future always yields a JobReport — admission failures are
     * already-satisfied futures with JobDiags, execution errors are
     * caught into the report. Never throws on bad input.
     */
    std::future<JobReport> submit(JobSpec spec);

    /** Parse a JSON job description, then submit. */
    std::future<JobReport> submitJson(std::string_view json_text);

    /**
     * Cancel every job with this spec id that the scheduler still
     * holds (parked on a warming lane or waiting for a slot). Their
     * futures complete immediately with ok=false and a "cancelled"
     * diagnostic. Jobs already dispatched to the pool — running or
     * finished — are not cancellable; returns the number cancelled.
     */
    std::size_t cancel(const std::string &id);

    /** Block until every admitted job has finished. */
    void drain();

    /** Snapshot of the queue-level statistics. */
    JobQueueStats stats() const;

  private:
    /** A resolved job the scheduler holds or the pool executes. */
    struct Pending
    {
        std::shared_ptr<ResolvedJob> job;
        std::shared_ptr<std::promise<JobReport>> done;
        std::chrono::steady_clock::time_point admitted;
    };

    std::future<JobReport> reject(JobReport &&report);
    void dispatch(std::uint64_t seq, Pending &&pending);
    void execute(std::uint64_t seq, const Pending &pending);

    ThreadPool &pool() { return own_pool_ ? *own_pool_ : ThreadPool::global(); }

    std::optional<ThreadPool> own_pool_;
    const std::chrono::steady_clock::time_point start_;
    const ArtifactStoreStats store_before_;

    mutable std::mutex mutex_;
    std::condition_variable idle_;
    JobScheduler sched_;
    /** Jobs admitted but held by the scheduler, by seq. */
    std::map<std::uint64_t, Pending> held_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t pending_ = 0;
    std::uint64_t submitted_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::uint64_t verifyChecked_ = 0;
    std::uint64_t verifyRejected_ = 0;
    std::uint64_t pressureRejected_ = 0;
    LatencyReservoir latencies_;
};

} // namespace sc::api

#endif // SPARSECORE_API_JOB_QUEUE_HH
