/**
 * @file
 * Tests for api::JobQueue: batched async submission, per-job futures,
 * structured rejection of malformed jobs, bit-identity of queued
 * results against sequential Machine execution, queue statistics, and
 * a concurrent-submitter soak (the TSan target in check.sh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/artifact_store.hh"
#include "api/job_queue.hh"
#include "api/jobspec.hh"
#include "api/machine.hh"
#include "trace/recorder.hh"

using namespace sc;
using api::JobQueue;
using api::JobReport;

namespace {

/** A small mixed batch: every workload class, valid throughout. */
std::vector<std::string>
mixedBatch()
{
    return {
        R"({"version":1,"id":"a","workload":"gpm","app":"T","dataset":"W"})",
        R"({"version":1,"id":"b","workload":"gpm","app":"T","dataset":"W","mode":"run","substrate":"sparsecore"})",
        R"({"version":1,"id":"c","workload":"fsm","dataset":"C","min_support":500})",
        R"({"version":1,"id":"d","workload":"spmspm","dataset":"E","options":{"stride":4}})",
        R"({"version":1,"id":"e","workload":"ttv","dataset":"Ch","options":{"stride":8}})",
        R"({"version":1,"id":"f","workload":"ttm","dataset":"U","options":{"stride":128}})",
    };
}

} // namespace

TEST(JobQueue, BatchOfFuturesAllComplete)
{
    JobQueue queue;
    std::vector<std::future<JobReport>> futures;
    for (const std::string &line : mixedBatch())
        futures.push_back(queue.submitJson(line));
    for (auto &f : futures) {
        const JobReport r = f.get();
        EXPECT_TRUE(r.ok) << r.id << ": "
                          << (r.errors.empty()
                                  ? std::string("?")
                                  : r.errors[0].message);
        EXPECT_TRUE(r.run.has_value() || r.comparison.has_value());
    }
    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(JobQueue, MalformedJobsRejectWithoutAborting)
{
    JobQueue queue;
    const char *bad[] = {
        "{ not json",
        R"({"version":1,"workload":"quantum","dataset":"W"})",
        R"({"version":1,"workload":"gpm","dataset":"NOPE"})",
        R"({"version":1,"workload":"gpm","dataset":"W",)"
        R"("options":{"stride":0}})",
        R"({"version":9,"workload":"gpm","dataset":"W"})",
    };
    for (const char *line : bad) {
        auto f = queue.submitJson(line);
        // Rejection is synchronous: the future is already satisfied.
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << line;
        const JobReport r = f.get();
        EXPECT_FALSE(r.ok) << line;
        EXPECT_FALSE(r.errors.empty()) << line;
        EXPECT_FALSE(r.run.has_value());
        EXPECT_FALSE(r.comparison.has_value());
    }
    // A valid job still runs after the rejects.
    EXPECT_TRUE(queue
                    .submitJson(R"({"version":1,"workload":"gpm",)"
                                R"("app":"T","dataset":"W"})")
                    .get()
                    .ok);
    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.rejected, 5u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(JobQueue, QueuedResultsMatchSequentialMachine)
{
    // Simulated results must not depend on how a job reached the
    // Machine: queue at any width == direct sequential execution.
    std::vector<JobReport> queued;
    {
        JobQueue queue;
        std::vector<std::future<JobReport>> futures;
        for (const std::string &line : mixedBatch())
            futures.push_back(queue.submitJson(line));
        for (auto &f : futures)
            queued.push_back(f.get());
    }
    for (const JobReport &r : queued) {
        ASSERT_TRUE(r.ok) << r.id;
        const auto resolved = api::resolveJob(r.spec);
        ASSERT_TRUE(resolved.ok()) << r.id;
        api::Machine machine(resolved.job->config);
        if (r.spec.mode == api::JobMode::Run) {
            const api::RunResult direct = machine.run(
                resolved.job->request, r.spec.substrate);
            ASSERT_TRUE(r.run.has_value()) << r.id;
            EXPECT_EQ(r.run->cycles, direct.cycles) << r.id;
            EXPECT_EQ(r.run->functionalResult,
                      direct.functionalResult)
                << r.id;
        } else {
            const api::Comparison direct =
                machine.compare(resolved.job->request);
            ASSERT_TRUE(r.comparison.has_value()) << r.id;
            EXPECT_EQ(r.comparison->accelerated.cycles,
                      direct.accelerated.cycles)
                << r.id;
            EXPECT_EQ(r.comparison->baseline.cycles,
                      direct.baseline.cycles)
                << r.id;
            EXPECT_EQ(r.comparison->functionalResult,
                      direct.functionalResult)
                << r.id;
        }
        // The deterministic report shape is byte-identical too.
        EXPECT_EQ(r.toJsonValue(false).dump(),
                  r.toJsonValue(false).dump());
    }
}

TEST(JobQueue, SingleWorkerRunsInSubmissionOrder)
{
    // workers=1 executes inline at submit(): every future is ready
    // the moment submit returns, in order.
    JobQueue queue(1);
    for (const std::string &line : mixedBatch()) {
        auto f = queue.submitJson(line);
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_TRUE(f.get().ok);
    }
}

TEST(JobQueue, StatsExposeArtifactSharing)
{
    // Two identical compare jobs: the second replays the first's
    // captured program.
    JobQueue queue(1);
    const std::string job =
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W"})";
    EXPECT_TRUE(queue.submitJson(job).get().ok);
    EXPECT_TRUE(queue.submitJson(job).get().ok);
    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_GE(stats.traceHits, 1u);
    EXPECT_GT(stats.jobsPerSecond, 0.0);
    EXPECT_GE(stats.p99LatencySeconds, stats.p50LatencySeconds);
    // The JSON form carries the same counters.
    const std::string dumped = stats.toJsonValue().dump();
    EXPECT_NE(dumped.find("\"jobs_per_second\""), std::string::npos);
    EXPECT_NE(dumped.find("\"artifact_store\""), std::string::npos);
    EXPECT_NE(dumped.find("\"trace_hits\""), std::string::npos);
}

TEST(JobQueue, ConcurrentSubmittersSoak)
{
    // Multiple tenant threads hammer one queue with interleaved valid
    // and invalid jobs. This is the TSan target: admission counters,
    // the latency vector and the store routing must all be clean.
    JobQueue queue;
    constexpr unsigned kTenants = 4;
    constexpr unsigned kJobsEach = 8;
    std::vector<std::thread> tenants;
    std::vector<std::vector<std::future<JobReport>>> futures(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
        tenants.emplace_back([&queue, &futures, t] {
            const auto mix = mixedBatch();
            for (unsigned i = 0; i < kJobsEach; ++i) {
                if (i % 4 == 3) // every 4th job is malformed
                    futures[t].push_back(
                        queue.submitJson("{\"version\":1"));
                else
                    futures[t].push_back(queue.submitJson(
                        mix[(t + i) % mix.size()]));
            }
        });
    }
    for (auto &thread : tenants)
        thread.join();
    unsigned ok = 0, bad = 0;
    for (auto &per_tenant : futures)
        for (auto &f : per_tenant)
            f.get().ok ? ++ok : ++bad;
    EXPECT_EQ(ok, kTenants * kJobsEach * 3 / 4);
    EXPECT_EQ(bad, kTenants * kJobsEach / 4);
    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, kTenants * kJobsEach);
    EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
}

TEST(JobQueue, DrainWaitsForEverything)
{
    JobQueue queue;
    std::vector<std::future<JobReport>> futures;
    for (const std::string &line : mixedBatch())
        futures.push_back(queue.submitJson(line));
    queue.drain();
    for (auto &f : futures)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
}

TEST(JobQueue, DrainRacesConcurrentSubmitters)
{
    // drain() must be callable while other threads are still
    // submitting: it waits for the jobs admitted so far and never
    // deadlocks or crashes when more arrive concurrently (another
    // TSan target).
    JobQueue queue(2);
    constexpr unsigned kSubmitters = 3;
    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<JobReport>>> futures(
        kSubmitters);
    for (unsigned t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&queue, &futures, t] {
            const auto mix = mixedBatch();
            for (unsigned i = 0; i < 6; ++i)
                futures[t].push_back(
                    queue.submitJson(mix[(t + i) % mix.size()]));
        });
    }
    for (unsigned i = 0; i < 8; ++i)
        queue.drain();
    for (auto &thread : submitters)
        thread.join();
    queue.drain();
    for (auto &per_thread : futures)
        for (auto &f : per_thread) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            EXPECT_TRUE(f.get().ok);
        }
}

TEST(JobQueue, DestructorWaitsForParkedJobs)
{
    // Four jobs on one cold lane with a two-worker pool: the first
    // dispatches as the warmer, the rest park. Destroying the queue
    // immediately must wait for the whole chain — warmer completes,
    // parked jobs release, everything finishes (TSan-clean).
    std::vector<std::future<JobReport>> futures;
    {
        JobQueue queue(2, sc::api::SchedPolicy::Affinity);
        for (int i = 0; i < 4; ++i)
            futures.push_back(queue.submitJson(
                R"({"version":1,"workload":"gpm","app":"T",)"
                R"("dataset":"W"})"));
    }
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_TRUE(f.get().ok);
    }
}

TEST(JobQueue, CancelRemovesParkedJobsAndReportsThem)
{
    // One warmer plus three parked siblings on a cold lane; the
    // siblings are cancelled while the warmer still runs. Their
    // futures complete immediately with a structured "cancelled"
    // diagnostic; the warmer is unaffected.
    JobQueue queue(2, sc::api::SchedPolicy::Affinity);
    auto warmer = queue.submitJson(
        R"({"version":1,"id":"keeper","workload":"gpm","app":"T",)"
        R"("dataset":"W"})");
    std::vector<std::future<JobReport>> parked;
    for (int i = 0; i < 3; ++i)
        parked.push_back(queue.submitJson(
            R"({"version":1,"id":"victim","workload":"gpm",)"
            R"("app":"T","dataset":"W"})"));
    const std::size_t cancelled = queue.cancel("victim");
    EXPECT_EQ(cancelled, 3u);
    for (auto &f : parked) {
        const JobReport r = f.get();
        EXPECT_FALSE(r.ok);
        ASSERT_FALSE(r.errors.empty());
        EXPECT_NE(r.errors[0].message.find("cancelled"),
                  std::string::npos);
    }
    EXPECT_TRUE(warmer.get().ok);
    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.cancelled, 3u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.scheduler.cancelled, 3u);
}

TEST(JobQueue, CancelOfRunningOrFinishedJobsIsANoOp)
{
    // workers=1 executes inline: by the time cancel() runs, the job
    // already finished — running/finished jobs are not cancellable.
    JobQueue queue(1);
    auto f = queue.submitJson(
        R"({"version":1,"id":"done","workload":"gpm","app":"T",)"
        R"("dataset":"W"})");
    EXPECT_EQ(queue.cancel("done"), 0u);
    EXPECT_EQ(queue.cancel("never-submitted"), 0u);
    EXPECT_TRUE(f.get().ok);
    EXPECT_EQ(queue.stats().cancelled, 0u);
}

TEST(JobQueue, PoliciesAndWidthsAgreeOnDeterministicReports)
{
    // The tentpole invariant: the --no-timing report of every job is
    // byte-identical whatever the policy or queue width.
    std::vector<std::string> reference;
    for (const auto policy :
         {sc::api::SchedPolicy::Fifo, sc::api::SchedPolicy::Affinity}) {
        for (const unsigned workers : {1u, 3u}) {
            JobQueue queue(workers, policy);
            std::vector<std::future<JobReport>> futures;
            for (const std::string &line : mixedBatch())
                futures.push_back(queue.submitJson(line));
            std::vector<std::string> dumped;
            for (auto &f : futures)
                dumped.push_back(f.get().toJsonValue(false).dump());
            if (reference.empty())
                reference = dumped;
            else
                EXPECT_EQ(dumped, reference)
                    << sc::api::schedPolicyName(policy) << " x"
                    << workers;
        }
    }
}

TEST(JobQueue, StatsExposeSchedulerCounters)
{
    JobQueue queue(1, sc::api::SchedPolicy::Affinity);
    const std::string job =
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W"})";
    EXPECT_TRUE(queue.submitJson(job).get().ok);
    EXPECT_TRUE(queue.submitJson(job).get().ok);
    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.scheduler.policy, sc::api::SchedPolicy::Affinity);
    EXPECT_EQ(stats.scheduler.warmers, 1u);
    ASSERT_EQ(stats.scheduler.laneJobs.size(), 1u);
    EXPECT_EQ(stats.scheduler.laneJobs[0].second, 2u);
    EXPECT_EQ(stats.scheduler.laneJobs[0].first.rfind("gpm/", 0), 0u);
    const std::string dumped = stats.toJsonValue().dump();
    EXPECT_NE(dumped.find("\"scheduler\""), std::string::npos);
    EXPECT_NE(dumped.find("\"convoy_avoided\""), std::string::npos);
    EXPECT_NE(dumped.find("\"lanes\""), std::string::npos);
    EXPECT_NE(dumped.find("\"trace_waits\""), std::string::npos);
}

// ---------------- admission-time verification ----------------

TEST(JobQueue, AdmissionRejectsWarmJobOverDeclaredSusBudget)
{
    // Cold submissions are never pressure-checked (nothing resident
    // to analyze); once the dataset's trace is warm, a job declaring
    // an arch.sus budget below the trace's peak live-stream pressure
    // is rejected at submit() with a structured JobDiag — never a
    // throw — before it reaches the scheduler.
    // App TC keeps several streams live at once (the materializing
    // triangle-count plan), unlike the nested-intersection apps whose
    // trace-level pressure is 1.
    api::ArtifactStore::global().clear();
    JobQueue queue(1);
    const std::string warmup =
        R"({"version":1,"id":"warm","workload":"gpm","app":"TC",)"
        R"("dataset":"W","mode":"run","substrate":"sparsecore"})";
    EXPECT_TRUE(queue.submitJson(warmup).get().ok);

    auto f = queue.submitJson(
        R"({"version":1,"id":"tight","workload":"gpm","app":"TC",)"
        R"("dataset":"W","mode":"run","substrate":"sparsecore",)"
        R"("arch":{"sus":1}})");
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const JobReport r = f.get();
    EXPECT_FALSE(r.ok);
    ASSERT_FALSE(r.errors.empty());
    EXPECT_EQ(r.errors[0].field, "arch.sus");
    EXPECT_NE(r.errors[0].message.find("pressure"),
              std::string::npos);
    EXPECT_FALSE(r.run.has_value());
    EXPECT_FALSE(r.comparison.has_value());

    // A budget at or above the trace's peak pressure is admitted.
    EXPECT_TRUE(queue
                    .submitJson(R"({"version":1,"id":"roomy",)"
                                R"("workload":"gpm","app":"TC",)"
                                R"("dataset":"W","mode":"run",)"
                                R"("substrate":"sparsecore",)"
                                R"("arch":{"sus":8}})")
                    .get()
                    .ok);

    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.pressureRejected, 1u);
    EXPECT_EQ(stats.verifyRejected, 0u);
    EXPECT_GE(stats.verifyChecked, 2u);
    const std::string dumped = stats.toJsonValue().dump();
    EXPECT_NE(dumped.find("\"pressure_rejected\":1"),
              std::string::npos)
        << dumped;
}

TEST(JobQueue, AdmissionRejectsWarmJobFailingVerification)
{
    // Poison the exact affinity key the job resolves to with a trace
    // carrying a lifetime error: a verify-enabled job on that warm
    // dataset must be rejected at admission with the "program" diag.
    api::ArtifactStore::global().clear();
    const std::string json =
        R"({"version":1,"id":"poisoned","workload":"gpm",)"
        R"("app":"T","dataset":"W","options":{"verify":true}})";
    const auto parsed = api::parseJobSpec(json);
    ASSERT_TRUE(parsed.ok());
    const auto resolved = api::resolveJob(*parsed.spec);
    ASSERT_TRUE(resolved.ok());
    const std::string key = resolved.job->affinityKey;
    ASSERT_FALSE(key.empty());
    api::ArtifactStore::global().trace(
        key, [](trace::TraceRecorder &rec) {
            rec.begin();
            const auto a = rec.streamLoad(
                0x1000, 3, 0, std::vector<Key>{1, 2, 3});
            rec.streamFree(a);
            rec.streamFree(a); // double free: an error diagnostic
            return std::uint64_t{0};
        });

    JobQueue queue(1);
    auto f = queue.submitJson(json);
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const JobReport r = f.get();
    EXPECT_FALSE(r.ok);
    ASSERT_FALSE(r.errors.empty());
    EXPECT_EQ(r.errors[0].field, "program");
    EXPECT_NE(r.errors[0].message.find("double-free"),
              std::string::npos)
        << r.errors[0].message;

    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.verifyRejected, 1u);
    EXPECT_EQ(stats.pressureRejected, 0u);

    // Drop the poisoned trace so later tests rebuild the real one.
    api::ArtifactStore::global().clear();
}

TEST(JobQueue, AdmissionAdmitsUndeclaredJobsAndCachesVerdicts)
{
    // Jobs that declare no arch.sus budget are never pressure-
    // rejected, and a warm verify-enabled job reuses the cached
    // verdict instead of re-running the checker.
    api::ArtifactStore::global().clear();
    JobQueue queue(1);
    const std::string job =
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W",)"
        R"("options":{"verify":true}})";
    EXPECT_TRUE(queue.submitJson(job).get().ok);
    EXPECT_TRUE(queue.submitJson(job).get().ok);

    const api::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.pressureRejected, 0u);
    EXPECT_EQ(stats.verifyRejected, 0u);
    EXPECT_GE(stats.verifyChecked, 1u); // the warm second submit
    EXPECT_GE(stats.verdictHits, 1u);   // re-check skipped
    const std::string dumped = stats.toJsonValue().dump();
    EXPECT_NE(dumped.find("\"verify\""), std::string::npos);
    EXPECT_NE(dumped.find("\"verdict_hits\""), std::string::npos);
}

TEST(JobQueue, VerificationCachingKeepsResultsBitIdentical)
{
    // The acceptance invariant: results and cycles must be
    // bit-identical whether the verdict cache is cold (checker runs)
    // or warm (verified bit short-circuits the re-check).
    const std::string job =
        R"({"version":1,"workload":"gpm","app":"T","dataset":"W",)"
        R"("options":{"verify":true}})";

    api::ArtifactStore::global().clear();
    JobQueue cold_queue(1);
    const JobReport cold = cold_queue.submitJson(job).get();
    ASSERT_TRUE(cold.ok);

    JobQueue warm_queue(1); // verdict + trace + program all resident
    const JobReport warm = warm_queue.submitJson(job).get();
    ASSERT_TRUE(warm.ok);

    ASSERT_TRUE(cold.comparison.has_value());
    ASSERT_TRUE(warm.comparison.has_value());
    EXPECT_EQ(warm.comparison->accelerated.cycles,
              cold.comparison->accelerated.cycles);
    EXPECT_EQ(warm.comparison->baseline.cycles,
              cold.comparison->baseline.cycles);
    EXPECT_EQ(warm.comparison->functionalResult,
              cold.comparison->functionalResult);
    EXPECT_EQ(warm.toJsonValue(false).dump(),
              cold.toJsonValue(false).dump());
}

TEST(LatencyReservoir, BoundsMemoryAtCapacity)
{
    api::LatencyReservoir reservoir(64);
    for (int i = 0; i < 10000; ++i)
        reservoir.record(static_cast<double>(i));
    EXPECT_EQ(reservoir.samples().size(), 64u);
    EXPECT_EQ(reservoir.count(), 10000u);
    for (const double s : reservoir.samples()) {
        EXPECT_GE(s, 0.0);
        EXPECT_LT(s, 10000.0);
    }
}

TEST(LatencyReservoir, KeepsEverythingBelowCapacity)
{
    api::LatencyReservoir reservoir(128);
    for (int i = 0; i < 100; ++i)
        reservoir.record(static_cast<double>(i));
    EXPECT_EQ(reservoir.samples().size(), 100u);
    EXPECT_EQ(reservoir.count(), 100u);
}

TEST(LatencyReservoir, MedianStaysNearTheStreamMedian)
{
    // A uniform 0..1 ramp of 50k observations through a 512-slot
    // reservoir: the retained sample's median must stay close to the
    // stream's 0.5 (deterministic generator, so this is a fixed
    // result, not a flaky statistical bound).
    api::LatencyReservoir reservoir(512);
    for (int i = 0; i < 50000; ++i)
        reservoir.record(i / 50000.0);
    std::vector<double> samples = reservoir.samples();
    ASSERT_EQ(samples.size(), 512u);
    std::sort(samples.begin(), samples.end());
    const double median = samples[samples.size() / 2];
    EXPECT_NEAR(median, 0.5, 0.1);
}
