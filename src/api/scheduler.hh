/**
 * @file
 * api::JobScheduler — the pluggable scheduling layer under JobQueue.
 *
 * PR 8's queue was fire-and-forget FIFO: every admitted job went
 * straight to the work-stealing pool. On a mixed-dataset batch that
 * convoys — the pool's workers all pick up jobs naming the same cold
 * dataset and block together on the ArtifactStore's in-flight build
 * dedup while other datasets sit untouched. The scheduler fixes this
 * the way the paper's stream ISA keeps the SVPU fed: decouple cold
 * artifact *production* from warm artifact *consumption* so the host
 * workers never stall on work someone else is already doing.
 *
 * Policies (SchedPolicy, default Affinity; SC_JOB_SCHED / the
 * server's --sched flag select):
 *
 *  - Fifo      PR-8 behavior, bit for bit: every admitted job is
 *              dispatched immediately, priorities are ignored. The
 *              baseline the bench compares against.
 *
 *  - Affinity  Jobs are grouped into *lanes* by their dataset
 *              affinity key (the job's trace key, never empty:
 *              workload + dataset content fingerprint + sampling —
 *              see ResolvedJob::affinityKey). The first job of a cold
 *              lane is dispatched as the lane's designated *warmer*;
 *              siblings arriving while it runs are *parked* instead
 *              of burning pool workers on the same in-flight capture.
 *              When the warmer completes, the lane is warm and the
 *              parked jobs are released (they replay the now-resident
 *              trace + program). Distinct lanes spread across the
 *              available slots, so cold captures overlap with warm
 *              replays instead of convoying. Dispatch is capped at
 *              `slots` concurrent jobs; ready jobs beyond that wait
 *              in a priority queue ordered by effective priority
 *              (JobSpec::priority plus starvation-free aging: a held
 *              job gains one lane per aging quantum, so low-priority
 *              work can be delayed but never starved).
 *
 * The scheduler is a pure state machine: no threads, no locks, no
 * clock reads — the caller (JobQueue) holds its mutex across every
 * call and passes `now` in. That makes the parking/wakeup protocol
 * deterministic and directly unit-testable (tests/scheduler_test.cc).
 *
 * Determinism: scheduling moves host wall-clock only. Results and
 * simulated cycles are bit-identical for any policy, slot count or
 * dispatch order (the PR-2/PR-7/PR-8 replay invariants) — the
 * check.sh scheduler leg diffs --sched fifo vs affinity reports
 * byte for byte.
 */

#ifndef SPARSECORE_API_SCHEDULER_HH
#define SPARSECORE_API_SCHEDULER_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sc::api {

/** Queue scheduling policy (see file comment). */
enum class SchedPolicy { Fifo, Affinity };

const char *schedPolicyName(SchedPolicy policy);
/** "fifo" / "affinity" -> policy; nullopt on anything else. */
std::optional<SchedPolicy> parseSchedPolicy(std::string_view name);

/** Counter snapshot of one JobScheduler (under the owner's lock). */
struct SchedulerStats
{
    SchedPolicy policy = SchedPolicy::Fifo;
    std::uint64_t inflight = 0;       ///< dispatched, not yet complete
    std::uint64_t parked = 0;         ///< waiting on a warming lane
    std::uint64_t waitingForSlot = 0; ///< ready, all slots busy
    std::uint64_t warmers = 0;        ///< cold-lane warmers designated
    std::uint64_t convoyAvoided = 0;  ///< park events (jobs that did
                                      ///< not pile onto a cold lane)
    std::uint64_t cancelled = 0;      ///< held jobs cancelled
    /** Jobs admitted per affinity lane, sorted by lane key. */
    std::vector<std::pair<std::string, std::uint64_t>> laneJobs;
};

/**
 * The scheduling state machine. NOT thread-safe by design: the owner
 * serializes calls under its own mutex and supplies timestamps, so
 * unit tests can drive every interleaving deterministically.
 *
 * Contract: each admitted seq is either dispatched by admit()
 * returning true, dispatched later by appearing in an onComplete()
 * return value, or removed by cancel(). The owner must call
 * onComplete() exactly once for every dispatched seq.
 */
class JobScheduler
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;

    /** Aging quantum: a held job gains one priority lane per this
     *  many seconds held, so aged jobs eventually outrank any fresh
     *  high-priority stream (starvation freedom). */
    static constexpr double kDefaultAgingSeconds = 0.05;

    /**
     * @param policy scheduling policy
     * @param slots  max concurrently dispatched jobs (Affinity only;
     *        clamped to >= 1; Fifo never holds anything)
     * @param aging_seconds aging quantum; <= 0 disables aging
     */
    JobScheduler(SchedPolicy policy, unsigned slots,
                 double aging_seconds = kDefaultAgingSeconds);

    SchedPolicy policy() const { return policy_; }

    /**
     * Admit job `seq`. Returns true when the job should be dispatched
     * to the pool now; false when the scheduler holds it (parked on a
     * warming lane, or ready but out of slots) — it will come back
     * from a later onComplete() or be removed by cancel().
     *
     * `affinity` keys the lane: the job's trace key
     * (ResolvedJob::affinityKey), which is never empty.
     */
    bool admit(std::uint64_t seq, const std::string &affinity,
               int priority, TimePoint now);

    /**
     * A dispatched job finished. Returns the held seqs to dispatch
     * now, in dispatch order: the completed job's lane (if it was the
     * warmer) is marked warm and its parked jobs become ready, then
     * free slots are filled by descending effective priority
     * (ties: submission order).
     */
    std::vector<std::uint64_t> onComplete(std::uint64_t seq,
                                          TimePoint now);

    /** Remove a held (parked or waiting-for-slot) job. Returns false
     *  when `seq` is unknown, already dispatched, or done — running
     *  jobs cannot be cancelled. */
    bool cancel(std::uint64_t seq);

    SchedulerStats stats() const;

  private:
    struct Held
    {
        std::uint64_t seq = 0;
        int priority = 0;
        TimePoint enqueued;
        std::string lane; ///< affinity key
    };

    /** Per-affinity-key artifact temperature + parked siblings. */
    struct Lane
    {
        enum class Temp { Cold, Warming, Warm };
        Temp temp = Temp::Cold;
        std::uint64_t warmer = 0; ///< seq of the designated warmer
        std::uint64_t jobs = 0;   ///< total admitted to this lane
        std::vector<Held> parked;
    };

    void dispatchLocked(const Held &held);
    int effectivePriority(const Held &held, TimePoint now) const;

    const SchedPolicy policy_;
    const unsigned slots_;
    const double agingSeconds_;

    std::unordered_map<std::string, Lane> lanes_;
    std::vector<Held> ready_; ///< have no free slot yet
    std::unordered_map<std::uint64_t, std::string> dispatched_;
    std::uint64_t warmers_ = 0;
    std::uint64_t convoyAvoided_ = 0;
    std::uint64_t cancelled_ = 0;
};

} // namespace sc::api

#endif // SPARSECORE_API_SCHEDULER_HH
