/**
 * @file
 * api::ArtifactStore — one shared, content-keyed lifecycle for the
 * expensive artifacts the system builds: captured execution Traces
 * (with their functional result) and compiled SCBC BytecodePrograms,
 * alongside the dataset-registry graph caches (graph/datasets.hh,
 * built on the same common/cache.hh primitive).
 *
 * Keys are content-derived, never pointer-derived:
 *
 *   trace    gpm/<app>/g<graph fp>/s<root stride>[/c<chunk>of<n>]/tr<v>
 *            fsm/lg<labeled-graph fp>/sup<min support>/tr<v>
 *   program  <trace key>/scbc<v>[f]
 *   graph    dataset key (+ label count), owned by graph/datasets
 *
 * A trace is a pure function of (workload, dataset content, root
 * sampling) — the substrate, SparseCoreConfig, SIMD kernel level and
 * set-index policy all act at *replay* time — so one cached capture
 * serves every sweep point, substrate comparison and config ladder.
 * Compiled programs key off the trace key plus the SCBC format
 * version, so a fig07–fig16 sweep compiles each (app, dataset)
 * exactly once and replays the shared program at every point.
 *
 * Cached and cold paths are bit-identical in results and simulated
 * cycles (the PR-2/PR-6 replay invariants; pinned again by
 * tests/artifact_store_test.cc). The store only moves host
 * wall-clock. SC_ARTIFACT_CACHE=off|on is the process-wide escape
 * hatch; RunOptions::artifactCache / HostOptions::artifactCache
 * override per call. SC_ARTIFACT_CACHE_BYTES bounds the resident
 * bytes per cache (traces and programs; default 1 GiB each) — LRU
 * eviction with in-use artifacts pinned by their shared_ptr.
 */

#ifndef SPARSECORE_API_ARTIFACT_STORE_HH
#define SPARSECORE_API_ARTIFACT_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "analysis/diagnostics.hh"
#include "analysis/summary.hh"
#include "common/cache.hh"
#include "gpm/apps.hh"
#include "graph/datasets.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"

namespace sc::api {

/** Counter snapshot across the store's caches. */
struct ArtifactStoreStats
{
    CacheStats graphs;        ///< dataset registry (graph/datasets)
    CacheStats labeledGraphs; ///< labeled dataset registry
    CacheStats traces;
    CacheStats programs;
    CacheStats verdicts; ///< verified-bit cache (verdict())

    /** One-line summary ("traces 3 hits / 1 miss | ..."). */
    std::string str() const;
};

class ArtifactStore
{
  public:
    /** A captured trace plus the functional result of its capture
     *  run (embeddings / frequent patterns), so cache hits skip the
     *  functional enumeration entirely. */
    struct CachedTrace
    {
        trace::Trace trace;
        std::uint64_t functionalResult = 0;
    };

    /** Capture callback: run the workload against the recorder and
     *  return the functional result. Invoked only on a miss. */
    using CaptureFn =
        std::function<std::uint64_t(trace::TraceRecorder &)>;

    /** @param capacity_bytes per-cache byte budget (0 = unbounded) */
    explicit ArtifactStore(std::size_t capacity_bytes =
                               defaultCapacityBytes());

    /** The process-wide store every cached code path shares. */
    static ArtifactStore &global();

    /** SC_ARTIFACT_CACHE=off|on|0|1 (default on). Read once. */
    static bool enabledByDefault();
    /** Per-call override beats the environment default. */
    static bool resolveEnabled(std::optional<bool> override_);
    /** SC_ARTIFACT_CACHE_BYTES (default 1 GiB per cache). */
    static std::size_t defaultCapacityBytes();

    /** Get-or-capture the trace for `key`. The capture runs at most
     *  once per resident lifetime of the key; concurrent requests
     *  share the first capture. */
    std::shared_ptr<const CachedTrace>
    trace(const std::string &key, const CaptureFn &capture);

    /**
     * Get-or-compile the bytecode program for a trace. Compiling does
     * not verify: api::prepare() checks the trace's verdict() on every
     * call, hit or miss. When `compiled` is non-null it is set to
     * whether *this call* ran the compile (i.e. the request was a
     * store miss) — the race-free way to report per-call cache hits,
     * unlike sampling the aggregate miss counters around the call.
     */
    std::shared_ptr<const trace::BytecodeProgram>
    program(const std::string &trace_key, const trace::Trace &tr,
            bool *compiled = nullptr);

    /**
     * Get-or-verify the stream-lifetime report for a trace at
     * `capacity` live streams — the verified bit. The checker runs
     * at most once per resident (trace_key, capacity); warm replays
     * and repeat job admissions reuse the verdict instead of
     * re-running the trace checker. The verdict is a pure function
     * of the (content-keyed) trace, so caching it never changes
     * results or cycles — replay verification happens entirely
     * before the timing backend starts.
     */
    std::shared_ptr<const analysis::VerifyReport>
    verdict(const std::string &trace_key, const trace::Trace &tr,
            unsigned capacity);

    /** Get-or-compute the quantitative summary (pressure profile +
     *  cost bounds) of a trace under `config` — at most once per
     *  resident (trace_key, arch point). Admission control reads
     *  maxPressure from here; scverify and the sweep tests share the
     *  same cached numbers. */
    std::shared_ptr<const analysis::ProgramSummary>
    summary(const std::string &trace_key, const trace::Trace &tr,
            const arch::SparseCoreConfig &config);

    /** Resident-trace peek for admission-time checks: never captures,
     *  never counts a hit or miss (the smoke legs pin those). */
    std::shared_ptr<const CachedTrace>
    peekTrace(const std::string &key);

    /** Dataset-registry accessors (shared graph+index artifacts). */
    std::shared_ptr<const graph::CsrGraph>
    graph(const std::string &dataset_key) const;
    std::shared_ptr<const graph::LabeledGraph>
    labeledGraph(const std::string &dataset_key,
                 std::uint32_t num_labels = 8) const;

    ArtifactStoreStats stats() const;
    /** Drop resident traces/programs (graph registry untouched). */
    void clear();

    // ---------------- key scheme ----------------
    static std::string gpmTraceKey(gpm::GpmApp app,
                                   const graph::CsrGraph &g,
                                   unsigned root_stride);
    /** Per-chunk key for the host-parallel runtime: chunk m of n of
     *  the same (app, graph, stride) run. */
    static std::string gpmChunkTraceKey(gpm::GpmApp app,
                                        const graph::CsrGraph &g,
                                        unsigned root_stride,
                                        unsigned chunk,
                                        unsigned num_chunks);
    static std::string fsmTraceKey(const graph::LabeledGraph &g,
                                   std::uint64_t min_support);
    static std::string programKey(const std::string &trace_key,
                                  bool fused = true);
    static std::string verdictKey(const std::string &trace_key,
                                  unsigned capacity);
    static std::string summaryKey(const std::string &trace_key,
                                  const arch::SparseCoreConfig &config);

  private:
    LruCache<std::string, CachedTrace> traces_;
    LruCache<std::string, trace::BytecodeProgram> programs_;
    LruCache<std::string, analysis::VerifyReport> verdicts_;
    LruCache<std::string, analysis::ProgramSummary> summaries_;
};

} // namespace sc::api

#endif // SPARSECORE_API_ARTIFACT_STORE_HH
