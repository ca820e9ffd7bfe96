/**
 * @file
 * Layer probes for the traced pipeline run: code the benchmark puts
 * around the library's public entry points so each layer's host time
 * and counters can be read without touching src/.
 *
 *  - runWorkload(): the workload-to-backend dispatch (GPM executor,
 *    FSM miner, tensor kernels) — the same calls Machine makes, so a
 *    TraceRecorder, a FunctionalBackend or a timing backend can be
 *    driven by one job.
 *  - TimedBackend: an ExecBackend decorator that times every hook per
 *    family (set ops, stream loads, scalar work, ...) on the wrapped
 *    CpuBackend / SparseCoreBackend.
 *  - NullBackend: a backend whose hooks do nothing, so a replay onto it
 *    measures the bytecode decoder alone.
 *  - SimCounters: the arch/ and sim/ component counters read off the
 *    timing backends after a replay.
 */

#ifndef SPARSECORE_BENCH_PIPELINE_PROBES_HH
#define SPARSECORE_BENCH_PIPELINE_PROBES_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <type_traits>

#include "api/run.hh"
#include "backend/cpu_backend.hh"
#include "backend/exec_backend.hh"
#include "backend/sparsecore_backend.hh"

namespace sc::pipeline {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/** Run the request's workload against one backend (begin..finish). */
api::RunResult runWorkload(const api::RunRequest &req,
                           backend::ExecBackend &be);

/** ExecBackend hook families the timing decorator separates. */
enum class HookFamily : unsigned
{
    SetOp,      ///< setOp (producing)
    SetOpCount, ///< setOpCount
    Nested,     ///< nestedIntersect (incl. the CPU's lowered loop)
    StreamLoad, ///< streamLoad, streamLoadKv
    StreamFree, ///< streamFree
    Value,      ///< valueIntersect, denseValueIntersect, valueMerge
    Scalar,     ///< scalarOps, scalarBranch, scalarLoad
    Control,    ///< begin, finish, consumeStream, iterateStream
    Count
};

constexpr std::size_t kHookFamilies =
    static_cast<std::size_t>(HookFamily::Count);

const char *hookFamilyName(HookFamily family);

/** Host seconds and call counts per hook family. */
struct HookProfile
{
    std::array<double, kHookFamilies> seconds{};
    std::array<std::uint64_t, kHookFamilies> calls{};
};

/**
 * Times every hook of the wrapped backend. Each call pays two clock
 * reads, which the per-family seconds include. The decorator forwards
 * caps() and every call unchanged, so the wrapped backend computes the
 * same cycles as an undecorated replay.
 */
class TimedBackend final : public backend::ExecBackend
{
  public:
    TimedBackend(backend::ExecBackend &inner, HookProfile &profile)
        : inner_(inner), profile_(profile)
    {
    }

    std::string name() const override { return inner_.name(); }
    void begin() override;
    Cycles finish() override;
    sim::CycleBreakdown breakdown() const override
    {
        return inner_.breakdown();
    }
    Caps caps() const override { return inner_.caps(); }

    void scalarOps(std::uint64_t n) override;
    void scalarBranch(std::uint64_t pc, bool taken) override;
    void scalarLoad(Addr addr) override;

    backend::BackendStream streamLoad(Addr key_addr, std::uint32_t length,
                                      unsigned priority,
                                      streams::KeySpan keys) override;
    backend::BackendStream streamLoadKv(Addr key_addr, Addr val_addr,
                                        std::uint32_t length,
                                        unsigned priority,
                                        streams::KeySpan keys) override;
    void streamFree(backend::BackendStream handle) override;

    backend::BackendStream setOp(streams::SetOpKind kind,
                                 backend::BackendStream a,
                                 backend::BackendStream b,
                                 streams::KeySpan ak, streams::KeySpan bk,
                                 Key bound, streams::KeySpan result,
                                 Addr out_addr) override;
    void setOpCount(streams::SetOpKind kind, backend::BackendStream a,
                    backend::BackendStream b, streams::KeySpan ak,
                    streams::KeySpan bk, Key bound,
                    std::uint64_t count) override;

    void valueIntersect(backend::BackendStream a, backend::BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Addr a_val_base, Addr b_val_base,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override;
    void denseValueIntersect(
        backend::BackendStream a, backend::BackendStream b,
        streams::KeySpan ak, streams::KeySpan bk, Addr a_val_base,
        Addr b_val_base, std::span<const std::uint32_t> match_a,
        std::span<const std::uint32_t> match_b) override;
    backend::BackendStream valueMerge(backend::BackendStream a,
                                      backend::BackendStream b,
                                      streams::KeySpan ak,
                                      streams::KeySpan bk,
                                      Addr a_val_base, Addr b_val_base,
                                      std::uint64_t result_len,
                                      Addr out_addr) override;

    void nestedIntersect(
        backend::BackendStream s, streams::KeySpan s_keys,
        const std::vector<backend::NestedItem> &elems) override;

    void consumeStream(backend::BackendStream handle) override;
    void iterateStream(backend::BackendStream handle, std::uint64_t n,
                       unsigned ops_per_element) override;

  private:
    template <typename Fn>
    decltype(auto)
    timed(HookFamily family, Fn &&fn)
    {
        const auto t0 = Clock::now();
        const auto record = [&] {
            const auto f = static_cast<std::size_t>(family);
            profile_.seconds[f] += secondsSince(t0);
            ++profile_.calls[f];
        };
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record();
        } else {
            auto out = fn();
            record();
            return out;
        }
    }

    backend::ExecBackend &inner_;
    HookProfile &profile_;
};

/** Hooks that do nothing: replaying onto it times the decoder. */
class NullBackend final : public backend::ExecBackend
{
  public:
    std::string name() const override { return "null"; }
    Cycles finish() override { return 0; }
    sim::CycleBreakdown breakdown() const override { return {}; }

    backend::BackendStream
    streamLoad(Addr, std::uint32_t, unsigned, streams::KeySpan) override
    {
        return next_++;
    }
    backend::BackendStream
    streamLoadKv(Addr, Addr, std::uint32_t, unsigned,
                 streams::KeySpan) override
    {
        return next_++;
    }
    void streamFree(backend::BackendStream) override {}
    backend::BackendStream
    setOp(streams::SetOpKind, backend::BackendStream,
          backend::BackendStream, streams::KeySpan, streams::KeySpan, Key,
          streams::KeySpan, Addr) override
    {
        return next_++;
    }
    void
    setOpCount(streams::SetOpKind, backend::BackendStream,
               backend::BackendStream, streams::KeySpan, streams::KeySpan,
               Key, std::uint64_t) override
    {
    }
    void
    valueIntersect(backend::BackendStream, backend::BackendStream,
                   streams::KeySpan, streams::KeySpan, Addr, Addr,
                   std::span<const std::uint32_t>,
                   std::span<const std::uint32_t>) override
    {
    }
    backend::BackendStream
    valueMerge(backend::BackendStream, backend::BackendStream,
               streams::KeySpan, streams::KeySpan, Addr, Addr,
               std::uint64_t, Addr) override
    {
        return next_++;
    }
    void
    nestedIntersect(backend::BackendStream, streams::KeySpan,
                    const std::vector<backend::NestedItem> &) override
    {
    }

  private:
    backend::BackendStream next_ = 0;
};

/** arch/ and sim/ counters summed over the timing backends of a run. */
struct SimCounters
{
    // CPU baseline core (sim/)
    std::uint64_t cpuL1Hits = 0, cpuL1Misses = 0;
    std::uint64_t cpuL2Hits = 0, cpuL2Misses = 0;
    std::uint64_t cpuL3Hits = 0, cpuL3Misses = 0;
    std::uint64_t cpuMemAccesses = 0;
    std::uint64_t cpuBranches = 0, cpuMispredicts = 0;
    // SparseCore's host core and L2 refill path (sim/)
    std::uint64_t scL1Accesses = 0, scL2Accesses = 0, scMemAccesses = 0;
    // SparseCore stream components (arch/)
    std::uint64_t streamInstructions = 0, setOpElements = 0;
    std::uint64_t smtSpills = 0, smtAllocStalls = 0, smtVirtStalls = 0;
    std::uint64_t scacheRefillLines = 0, scachePrefetchLines = 0;
    std::uint64_t scacheWritebackLines = 0;
    std::uint64_t scratchpadHits = 0, scratchpadMisses = 0;

    void add(backend::CpuBackend &cpu);
    void add(backend::SparseCoreBackend &sc);
};

} // namespace sc::pipeline

#endif // SPARSECORE_BENCH_PIPELINE_PROBES_HH
