/**
 * @file
 * api::ArtifactStore — one shared, content-keyed lifecycle for the
 * expensive artifacts the system builds: captured SCBC programs (with
 * their functional result), alongside the dataset-registry graph
 * caches (graph/datasets.hh, built on the same common/cache.hh
 * primitive).
 *
 * Keys are content-derived, never pointer-derived:
 *
 *   trace    api::traceKey(request) (api/pipeline.hh): the workload,
 *            its operands' content fingerprints and its sampling
 *   graph    dataset key (+ label count), owned by graph/datasets
 *
 * A capture is a pure function of (workload, dataset content,
 * sampling) — the substrate, SparseCoreConfig, SIMD kernel level and
 * set-index policy all act at *replay* time — so one cached program
 * serves every sweep point, substrate comparison and config ladder:
 * a fig07–fig16 sweep captures each workload point exactly once and
 * replays the shared program at every point. One key holds one
 * entry, the program plus its functional result; the verdict and
 * summary caches hold small derived reports, and the SU cost cache
 * holds each program's SU cost column per SU window (8 bytes per SU
 * operation), which every SparseCore replay after the first reads
 * instead of recomputing its costs. Keys carry no format version: a
 * cached program never leaves process memory.
 *
 * Every api path takes its program from here (api::prepare). A cold
 * capture and a warm hit replay to the same results and simulated
 * cycles as direct execution (the replay invariant; pinned by
 * tests/artifact_store_test.cc and the cycle golden), so the store
 * only moves host wall-clock. SC_ARTIFACT_CACHE_BYTES bounds the
 * resident bytes per cache (programs, verdicts, summaries, SU cost
 * columns; default 1 GiB each) — LRU eviction with in-use artifacts
 * pinned by their shared_ptr.
 */

#ifndef SPARSECORE_API_ARTIFACT_STORE_HH
#define SPARSECORE_API_ARTIFACT_STORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "analysis/diagnostics.hh"
#include "analysis/summary.hh"
#include "arch/engine.hh"
#include "common/cache.hh"
#include "graph/datasets.hh"
#include "trace/recorder.hh"

namespace sc::api {

/** Counter snapshot across the store's caches. */
struct ArtifactStoreStats
{
    CacheStats graphs;        ///< dataset registry (graph/datasets)
    CacheStats labeledGraphs; ///< labeled dataset registry
    CacheStats traces; ///< captured programs (one entry per key)
    /** Reads zero: programs live in the trace entries. bench/pipeline
     *  compiles against this field. */
    CacheStats programs;
    CacheStats verdicts; ///< verified-bit cache (verdict())
    CacheStats suCosts;  ///< SU cost columns (suCosts())

    /** One-line summary ("traces 3 hits / 1 miss | ..."). */
    std::string str() const;
};

class ArtifactStore
{
  public:
    /** A captured program plus the functional result of its capture
     *  run (embeddings / frequent patterns), so cache hits skip the
     *  functional enumeration entirely. */
    struct CachedTrace
    {
        trace::BytecodeProgram trace;
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

    /** SC_ARTIFACT_CACHE_BYTES (default 1 GiB per cache). */
    static std::size_t defaultCapacityBytes();

    /** Get-or-capture the program for `key`. The capture runs at
     *  most once per resident lifetime of the key; concurrent
     *  requests share the first capture. Capturing does not verify:
     *  api::prepare() checks the verdict() on every call, hit or
     *  miss. */
    std::shared_ptr<const CachedTrace>
    trace(const std::string &key, const CaptureFn &capture);

    /**
     * bench/pipeline compiles against this: the resident entry's
     * program, shared without a copy when that entry holds `tr`, else
     * a private copy of `tr`. `compiled` reports whether it copied.
     */
    std::shared_ptr<const trace::BytecodeProgram>
    program(const std::string &trace_key,
            const trace::BytecodeProgram &tr, bool *compiled = nullptr);

    /**
     * Get-or-verify the stream-lifetime report for a program at
     * `capacity` live streams — the verified bit. The checker runs
     * at most once per resident (trace_key, capacity); warm replays
     * and repeat job admissions reuse the verdict instead of
     * re-running the checker. The verdict is a pure function of the
     * (content-keyed) program, so caching it never changes results
     * or cycles — replay verification happens entirely before the
     * timing backend starts.
     */
    std::shared_ptr<const analysis::VerifyReport>
    verdict(const std::string &trace_key,
            const trace::BytecodeProgram &program, unsigned capacity);

    /** Get-or-compute the quantitative summary (pressure profile +
     *  cost bounds) of a program under `config` — at most once per
     *  resident (trace_key, arch point). Admission control reads
     *  maxPressure from here; scverify and the sweep tests share the
     *  same cached numbers. */
    std::shared_ptr<const analysis::ProgramSummary>
    summary(const std::string &trace_key,
            const trace::BytecodeProgram &program,
            const arch::SparseCoreConfig &config);

    /**
     * Get-or-build the SU cost column of a program at SU `window`
     * (trace::suCostColumn) — at most once per resident (trace_key,
     * window). A SparseCore replay that attaches it reads each SU
     * operation's cost instead of computing it; the column depends
     * on nothing else, so every SU count, bandwidth and nested-flag
     * point at one window shares it.
     */
    std::shared_ptr<const arch::SuCostColumn>
    suCosts(const std::string &trace_key,
            const trace::BytecodeProgram &program, unsigned window);

    /** Resident-entry peek for admission-time checks: never captures,
     *  never counts a hit or miss (the smoke legs pin those). */
    std::shared_ptr<const CachedTrace>
    peekTrace(const std::string &key);

    ArtifactStoreStats stats() const;
    /** Drop resident programs and their reports (graph registry
     *  untouched). */
    void clear();

    // ---------- derived-report keys (trace keys: api::traceKey) ----------
    static std::string verdictKey(const std::string &trace_key,
                                  unsigned capacity);
    static std::string summaryKey(const std::string &trace_key,
                                  const arch::SparseCoreConfig &config);
    static std::string suCostKey(const std::string &trace_key,
                                 unsigned window);

  private:
    LruCache<std::string, CachedTrace> traces_;
    LruCache<std::string, analysis::VerifyReport> verdicts_;
    LruCache<std::string, analysis::ProgramSummary> summaries_;
    LruCache<std::string, arch::SuCostColumn> suCosts_;
};

} // namespace sc::api

#endif // SPARSECORE_API_ARTIFACT_STORE_HH
