#include "api/scheduler.hh"

#include <algorithm>

namespace sc::api {

const char *
schedPolicyName(SchedPolicy policy)
{
    return policy == SchedPolicy::Fifo ? "fifo" : "affinity";
}

std::optional<SchedPolicy>
parseSchedPolicy(std::string_view name)
{
    if (name == "fifo")
        return SchedPolicy::Fifo;
    if (name == "affinity")
        return SchedPolicy::Affinity;
    return std::nullopt;
}

JobScheduler::JobScheduler(SchedPolicy policy, unsigned slots,
                           double aging_seconds)
    : policy_(policy), slots_(std::max(1u, slots)),
      agingSeconds_(aging_seconds)
{
}

void
JobScheduler::dispatchLocked(const Held &held)
{
    if (!held.lane.empty()) {
        Lane &lane = lanes_[held.lane];
        if (lane.temp == Lane::Temp::Cold) {
            // First job of a cold lane: it becomes the designated
            // warmer — the one job allowed to pay the capture cost
            // for this dataset.
            lane.temp = Lane::Temp::Warming;
            lane.warmer = held.seq;
            ++warmers_;
        }
    }
    dispatched_.emplace(held.seq, held.lane);
}

int
JobScheduler::effectivePriority(const Held &held, TimePoint now) const
{
    int priority = held.priority;
    if (agingSeconds_ > 0) {
        const double waited =
            std::chrono::duration<double>(now - held.enqueued).count();
        if (waited > 0)
            priority += static_cast<int>(waited / agingSeconds_);
    }
    return priority;
}

bool
JobScheduler::admit(std::uint64_t seq, const std::string &affinity,
                    int priority, TimePoint now)
{
    if (!affinity.empty())
        ++lanes_[affinity].jobs;

    if (policy_ == SchedPolicy::Fifo) {
        // The PR-8 baseline: straight to the pool, no cap, no lanes.
        dispatched_.emplace(seq, affinity);
        return true;
    }

    const Held held{seq, priority, now, affinity};
    if (!affinity.empty()) {
        Lane &lane = lanes_[affinity];
        if (lane.temp == Lane::Temp::Warming) {
            // A sibling is already producing this lane's artifacts;
            // piling in would only stack workers on the store's
            // in-flight dedup. Park until the lane is warm.
            lane.parked.push_back(held);
            ++convoyAvoided_;
            return false;
        }
    }
    if (dispatched_.size() < slots_) {
        dispatchLocked(held);
        return true;
    }
    ready_.push_back(held);
    return false;
}

std::vector<std::uint64_t>
JobScheduler::onComplete(std::uint64_t seq, TimePoint now)
{
    std::vector<std::uint64_t> dispatch;
    const auto it = dispatched_.find(seq);
    if (it == dispatched_.end())
        return dispatch; // unknown seq: nothing to do
    const std::string lane_key = it->second;
    dispatched_.erase(it);
    if (policy_ == SchedPolicy::Fifo)
        return dispatch;

    if (!lane_key.empty()) {
        Lane &lane = lanes_[lane_key];
        if (lane.temp == Lane::Temp::Warming && lane.warmer == seq) {
            // The warmer landed the trace + program (or failed; its
            // siblings would fail identically, so release them
            // either way). The lane stays warm for its lifetime —
            // artifacts are content-keyed and the store pins in-use
            // entries, so a re-cold lane only costs one redundant
            // capture, deduped by the store itself.
            lane.temp = Lane::Temp::Warm;
            for (Held &held : lane.parked)
                ready_.push_back(std::move(held));
            lane.parked.clear();
        }
    }

    while (dispatched_.size() < slots_ && !ready_.empty()) {
        // Pop the best ready job: highest effective priority (the
        // spec's lane plus one lane per aging quantum held), ties by
        // submission order.
        std::size_t best = 0;
        int best_priority = effectivePriority(ready_[0], now);
        for (std::size_t i = 1; i < ready_.size(); ++i) {
            const int p = effectivePriority(ready_[i], now);
            if (p > best_priority ||
                (p == best_priority &&
                 ready_[i].seq < ready_[best].seq)) {
                best = i;
                best_priority = p;
            }
        }
        Held held = std::move(ready_[best]);
        ready_.erase(ready_.begin() +
                     static_cast<std::ptrdiff_t>(best));

        if (!held.lane.empty()) {
            Lane &lane = lanes_[held.lane];
            if (lane.temp == Lane::Temp::Warming) {
                // Another ready job just became this lane's warmer
                // while this one waited for a slot: park it instead
                // of duplicating the cold work.
                lane.parked.push_back(std::move(held));
                ++convoyAvoided_;
                continue;
            }
        }
        dispatchLocked(held);
        dispatch.push_back(held.seq);
    }
    return dispatch;
}

bool
JobScheduler::cancel(std::uint64_t seq)
{
    const auto drop = [seq](std::vector<Held> &held) {
        const auto it = std::find_if(
            held.begin(), held.end(),
            [seq](const Held &h) { return h.seq == seq; });
        if (it == held.end())
            return false;
        held.erase(it);
        return true;
    };
    if (drop(ready_)) {
        ++cancelled_;
        return true;
    }
    for (auto &[key, lane] : lanes_) {
        if (drop(lane.parked)) {
            ++cancelled_;
            return true;
        }
    }
    return false;
}

SchedulerStats
JobScheduler::stats() const
{
    SchedulerStats out;
    out.policy = policy_;
    out.inflight = dispatched_.size();
    out.waitingForSlot = ready_.size();
    out.warmers = warmers_;
    out.convoyAvoided = convoyAvoided_;
    out.cancelled = cancelled_;
    for (const auto &[key, lane] : lanes_) {
        out.parked += lane.parked.size();
        out.laneJobs.emplace_back(key, lane.jobs);
    }
    std::sort(out.laneJobs.begin(), out.laneJobs.end());
    return out;
}

} // namespace sc::api
