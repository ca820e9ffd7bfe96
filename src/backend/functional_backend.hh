/**
 * @file
 * FunctionalBackend: timeless substrate that only records structural
 * statistics (operation counts, total set-op work, stream-length
 * histogram). Used by tests as the golden-count reference and by the
 * Fig. 14 stream-length analysis.
 */

#ifndef SPARSECORE_BACKEND_FUNCTIONAL_BACKEND_HH
#define SPARSECORE_BACKEND_FUNCTIONAL_BACKEND_HH

#include "backend/exec_backend.hh"
#include "common/stats.hh"

namespace sc::trace {
struct EventProfile;
} // namespace sc::trace

namespace sc::backend {

/** Structure-only backend. Final so the bytecode replay loop's
 *  per-backend instantiation devirtualizes every call. */
class FunctionalBackend final : public ExecBackend
{
  public:
    static constexpr std::size_t numSetOpKinds = 3;

    FunctionalBackend();

    std::string name() const override { return "functional"; }
    void begin() override;
    Cycles finish() override { return 0; }
    sim::CycleBreakdown breakdown() const override { return {}; }

    BackendStream streamLoad(Addr key_addr, std::uint32_t length,
                             unsigned priority,
                             streams::KeySpan keys) override;
    BackendStream streamLoadKv(Addr key_addr, Addr val_addr,
                               std::uint32_t length, unsigned priority,
                               streams::KeySpan keys) override;
    void streamFree(BackendStream handle) override;

    BackendStream setOp(streams::SetOpKind kind, BackendStream a,
                        BackendStream b, streams::KeySpan ak,
                        streams::KeySpan bk, Key bound,
                        streams::KeySpan result, Addr out_addr) override;
    void setOpCount(streams::SetOpKind kind, BackendStream a,
                    BackendStream b, streams::KeySpan ak,
                    streams::KeySpan bk, Key bound,
                    std::uint64_t count) override;

    void valueIntersect(BackendStream a, BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Addr a_val_base, Addr b_val_base,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override;
    BackendStream valueMerge(BackendStream a, BackendStream b,
                             streams::KeySpan ak, streams::KeySpan bk,
                             Addr a_val_base, Addr b_val_base,
                             std::uint64_t result_len,
                             Addr out_addr) override;

    Caps
    caps() const override
    {
        Caps c;
        c.nested = true;
        return c;
    }
    void nestedIntersect(BackendStream s, streams::KeySpan s_keys,
                         const std::vector<NestedItem> &elems) override;

    /**
     * Apply a captured program's aggregate profile in one shot —
     * exactly the state every hook of a per-event replay would leave
     * (this backend is stateless across events: each hook is counter
     * bumps plus order-independent histogram samples), at
     * O(distinct lengths) instead of O(events). The bytecode replay
     * path (trace::replayCompiled) uses this instead of walking.
     */
    void applyProfile(const trace::EventProfile &profile);

    const StatSet &stats() const { return stats_; }
    const Histogram &streamLengthHist() const { return lengthHist_; }
    /** Live streams (loads minus frees), for leak checks in tests. */
    std::int64_t liveStreams() const { return liveStreams_; }

  private:
    BackendStream nextHandle();

    BackendStream next_ = 0;
    std::int64_t liveStreams_ = 0;
    StatSet stats_{"functional"};
    Histogram lengthHist_{4, 512};

    // Hot counters resolved once in the constructor instead of a
    // string-keyed map lookup (plus a heap-allocated key for the
    // per-kind names) on every event. StatSet::reset() zeroes values
    // in place without erasing entries, so the references stay valid
    // across begin().
    Counter &streamLoads_;
    Counter &streamLoadsKv_;
    Counter &streamFrees_;
    Counter &setOpElements_;
    Counter &valueIntersects_;
    Counter &valueMatches_;
    Counter &valueMerges_;
    Counter &nestedIntersects_;
    Counter &nestedElements_;
    Counter *setOps_[numSetOpKinds];
    Counter *setOpCounts_[numSetOpKinds];
};

} // namespace sc::backend

#endif // SPARSECORE_BACKEND_FUNCTIONAL_BACKEND_HH
