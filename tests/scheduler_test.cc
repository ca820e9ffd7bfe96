/**
 * @file
 * Tests for api::JobScheduler — the pure scheduling state machine
 * under JobQueue. Because the scheduler takes its clock as an
 * argument and is driven single-threaded here, every parking /
 * wakeup / priority / aging interleaving is deterministic: these
 * tests pin the protocol that the concurrent JobQueue tests can only
 * observe statistically.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "api/scheduler.hh"

using namespace sc;
using api::JobScheduler;
using api::SchedPolicy;

namespace {

JobScheduler::TimePoint
at(double seconds)
{
    return JobScheduler::TimePoint() +
           std::chrono::duration_cast<
               std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(seconds));
}

} // namespace

TEST(Scheduler, PolicyNamesRoundTrip)
{
    EXPECT_STREQ(api::schedPolicyName(SchedPolicy::Fifo), "fifo");
    EXPECT_STREQ(api::schedPolicyName(SchedPolicy::Affinity),
                 "affinity");
    EXPECT_EQ(api::parseSchedPolicy("fifo"), SchedPolicy::Fifo);
    EXPECT_EQ(api::parseSchedPolicy("affinity"),
              SchedPolicy::Affinity);
    EXPECT_FALSE(api::parseSchedPolicy("lifo").has_value());
    EXPECT_FALSE(api::parseSchedPolicy("").has_value());
}

TEST(Scheduler, FifoDispatchesEverythingImmediately)
{
    // The PR-8 baseline: no cap, no lanes, no holds — even with one
    // slot and one shared affinity key.
    JobScheduler sched(SchedPolicy::Fifo, 1);
    for (std::uint64_t seq = 0; seq < 8; ++seq)
        EXPECT_TRUE(sched.admit(seq, "gpm/T/gX/s1/tr1", 0, at(0)));
    EXPECT_EQ(sched.stats().inflight, 8u);
    EXPECT_EQ(sched.stats().parked, 0u);
    EXPECT_TRUE(sched.onComplete(3, at(1)).empty());
    EXPECT_EQ(sched.stats().inflight, 7u);
    // Per-dataset batch sizes are tracked under fifo too.
    ASSERT_EQ(sched.stats().laneJobs.size(), 1u);
    EXPECT_EQ(sched.stats().laneJobs[0].second, 8u);
}

TEST(Scheduler, ColdLaneGetsOneWarmerAndParksSiblings)
{
    JobScheduler sched(SchedPolicy::Affinity, 4);
    // First job of the cold lane dispatches as the warmer.
    EXPECT_TRUE(sched.admit(0, "laneA", 0, at(0)));
    // Siblings park even though slots are free — piling onto the
    // cold capture is exactly the convoy being avoided.
    EXPECT_FALSE(sched.admit(1, "laneA", 0, at(0)));
    EXPECT_FALSE(sched.admit(2, "laneA", 0, at(0)));
    api::SchedulerStats stats = sched.stats();
    EXPECT_EQ(stats.inflight, 1u);
    EXPECT_EQ(stats.parked, 2u);
    EXPECT_EQ(stats.warmers, 1u);
    EXPECT_EQ(stats.convoyAvoided, 2u);

    // The warmer completing marks the lane warm and releases both
    // parked siblings (slots permit).
    const auto released = sched.onComplete(0, at(1));
    EXPECT_EQ(released, (std::vector<std::uint64_t>{1, 2}));
    // Later arrivals on the warm lane dispatch straight away.
    EXPECT_TRUE(sched.admit(3, "laneA", 0, at(1)));
    EXPECT_EQ(sched.stats().parked, 0u);
}

TEST(Scheduler, DistinctLanesSpreadAcrossSlots)
{
    JobScheduler sched(SchedPolicy::Affinity, 4);
    // Four different datasets: all four dispatch concurrently, each
    // as its own lane's warmer — cold captures overlap.
    EXPECT_TRUE(sched.admit(0, "laneA", 0, at(0)));
    EXPECT_TRUE(sched.admit(1, "laneB", 0, at(0)));
    EXPECT_TRUE(sched.admit(2, "laneC", 0, at(0)));
    EXPECT_TRUE(sched.admit(3, "laneD", 0, at(0)));
    EXPECT_EQ(sched.stats().inflight, 4u);
    EXPECT_EQ(sched.stats().warmers, 4u);
    // A fifth lane waits for a slot, not for a lane.
    EXPECT_FALSE(sched.admit(4, "laneE", 0, at(0)));
    EXPECT_EQ(sched.stats().waitingForSlot, 1u);
    EXPECT_EQ(sched.onComplete(1, at(1)),
              (std::vector<std::uint64_t>{4}));
}

TEST(Scheduler, PriorityOrdersTheSlotQueue)
{
    // One lane per job, so nothing parks and only the slot cap holds.
    JobScheduler sched(SchedPolicy::Affinity, 1, /*aging=*/0);
    EXPECT_TRUE(sched.admit(0, "lane0", 0, at(0)));
    EXPECT_FALSE(sched.admit(1, "lane1", 0, at(0)));  // priority 0
    EXPECT_FALSE(sched.admit(2, "lane2", 50, at(0))); // priority 50
    EXPECT_FALSE(sched.admit(3, "lane3", 50, at(0))); // tie: lower seq
    // Highest priority first; ties by submission order.
    EXPECT_EQ(sched.onComplete(0, at(1)),
              (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(sched.onComplete(2, at(2)),
              (std::vector<std::uint64_t>{3}));
    EXPECT_EQ(sched.onComplete(3, at(3)),
              (std::vector<std::uint64_t>{1}));
    EXPECT_TRUE(sched.onComplete(1, at(4)).empty());
}

TEST(Scheduler, AgingPreventsStarvation)
{
    // One lane of aging per 0.1 s held: a priority-0 job held for
    // 2 s outranks a fresh priority-10 job.
    JobScheduler sched(SchedPolicy::Affinity, 1, /*aging=*/0.1);
    EXPECT_TRUE(sched.admit(0, "lane0", 0, at(0)));
    EXPECT_FALSE(sched.admit(1, "lane1", 0, at(0)));
    EXPECT_FALSE(sched.admit(2, "lane2", 10, at(2)));
    EXPECT_EQ(sched.onComplete(0, at(2)),
              (std::vector<std::uint64_t>{1}));
}

TEST(Scheduler, ReadyJobReparksWhenItsLaneTurnsWarming)
{
    JobScheduler sched(SchedPolicy::Affinity, 2, /*aging=*/0);
    EXPECT_TRUE(sched.admit(0, "laneA", 0, at(0)));  // warmer, slot 1
    EXPECT_TRUE(sched.admit(1, "laneB", 0, at(0)));  // warmer, slot 2
    EXPECT_FALSE(sched.admit(2, "laneC", 5, at(0))); // waits for slot
    EXPECT_FALSE(sched.admit(3, "laneC", 0, at(0))); // waits for slot
    // laneA's warmer completes: job 2 takes the slot as laneC's
    // warmer. Job 3 keeps waiting.
    EXPECT_EQ(sched.onComplete(0, at(1)),
              (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(sched.stats().waitingForSlot, 1u);
    // laneB's warmer completes: job 3 is popped for the free slot,
    // but its lane just turned Warming — it parks instead of
    // duplicating the cold capture, and the slot goes unused.
    EXPECT_TRUE(sched.onComplete(1, at(2)).empty());
    api::SchedulerStats stats = sched.stats();
    EXPECT_EQ(stats.parked, 1u);
    EXPECT_EQ(stats.waitingForSlot, 0u);
    // laneC's warmer completing releases it.
    EXPECT_EQ(sched.onComplete(2, at(3)),
              (std::vector<std::uint64_t>{3}));
}

TEST(Scheduler, CancelRemovesHeldJobsOnly)
{
    JobScheduler sched(SchedPolicy::Affinity, 1);
    EXPECT_TRUE(sched.admit(0, "laneA", 0, at(0)));  // dispatched
    EXPECT_FALSE(sched.admit(1, "laneA", 0, at(0))); // parked
    EXPECT_FALSE(sched.admit(2, "laneB", 0, at(0))); // waiting
    // Dispatched (running) jobs cannot be cancelled.
    EXPECT_FALSE(sched.cancel(0));
    // Parked and waiting-for-slot jobs can.
    EXPECT_TRUE(sched.cancel(1));
    EXPECT_TRUE(sched.cancel(2));
    EXPECT_FALSE(sched.cancel(1)); // already gone
    EXPECT_FALSE(sched.cancel(99)); // never admitted
    EXPECT_EQ(sched.stats().cancelled, 2u);
    // The warmer's completion finds nothing left to release.
    EXPECT_TRUE(sched.onComplete(0, at(1)).empty());
    EXPECT_EQ(sched.stats().parked, 0u);
    EXPECT_EQ(sched.stats().waitingForSlot, 0u);
}

TEST(Scheduler, LaneJobsReportPerDatasetBatchSizes)
{
    JobScheduler sched(SchedPolicy::Affinity, 8);
    sched.admit(0, "laneB", 0, at(0));
    sched.admit(1, "laneA", 0, at(0));
    sched.admit(2, "laneA", 0, at(0));
    const api::SchedulerStats stats = sched.stats();
    ASSERT_EQ(stats.laneJobs.size(), 2u);
    EXPECT_EQ(stats.laneJobs[0].first, "laneA"); // sorted by key
    EXPECT_EQ(stats.laneJobs[0].second, 2u);
    EXPECT_EQ(stats.laneJobs[1].first, "laneB");
    EXPECT_EQ(stats.laneJobs[1].second, 1u);
}

TEST(Scheduler, EveryAdmittedSeqIsEventuallyDispatched)
{
    // Liveness sweep: admit a burst across lanes and priorities, then
    // complete jobs as they dispatch — every admitted seq must come
    // out exactly once (no lost wakeups, no double dispatch).
    JobScheduler sched(SchedPolicy::Affinity, 3);
    std::vector<std::uint64_t> running;
    std::vector<bool> seen(64, false);
    const auto track = [&](std::uint64_t seq) {
        ASSERT_LT(seq, seen.size());
        ASSERT_FALSE(seen[seq]) << "seq " << seq << " twice";
        seen[seq] = true;
        running.push_back(seq);
    };
    const char *lanes[] = {"a", "b", "c", "d", "a", "b"};
    double clock = 0;
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
        if (sched.admit(seq, lanes[seq % 6],
                        static_cast<int>(seq % 7), at(clock)))
            track(seq);
        clock += 0.01;
        if (running.size() >= 3) {
            const std::uint64_t done = running.front();
            running.erase(running.begin());
            for (const std::uint64_t next :
                 sched.onComplete(done, at(clock)))
                track(next);
        }
    }
    while (!running.empty()) {
        const std::uint64_t done = running.front();
        running.erase(running.begin());
        clock += 0.01;
        for (const std::uint64_t next :
             sched.onComplete(done, at(clock)))
            track(next);
    }
    for (std::size_t seq = 0; seq < seen.size(); ++seq)
        EXPECT_TRUE(seen[seq]) << "seq " << seq << " never dispatched";
    const api::SchedulerStats stats = sched.stats();
    EXPECT_EQ(stats.inflight, 0u);
    EXPECT_EQ(stats.parked, 0u);
    EXPECT_EQ(stats.waitingForSlot, 0u);
}
