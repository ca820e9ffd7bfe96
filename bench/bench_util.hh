/**
 * @file
 * Shared helpers for the benchmark binaries: configuration banner,
 * dataset sampling policy, table emission, host wall-clock timing and
 * host-parallel sweep execution. Every bench prints the rows/series
 * of one paper figure or table; independent (dataset x config) points
 * run concurrently on the host pool and are emitted in a fixed order.
 */

#ifndef SPARSECORE_BENCH_BENCH_UTIL_HH
#define SPARSECORE_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/pipeline.hh"
#include "arch/config.hh"
#include "common/json.hh"
#include "common/parallel_for.hh"
#include "common/table.hh"
#include "graph/datasets.hh"
#include "gpm/apps.hh"
#include "trace/replay.hh"
#include "trace/bytecode.hh"

namespace sc::bench {

/** Print the figure banner + Table-2 configuration line. */
void printHeader(const std::string &figure, const std::string &title,
                 const arch::SparseCoreConfig &config);

/**
 * Deterministic self-tuning root sampling. A probe run on the
 * timeless functional backend at a coarse stride measures the
 * (app, graph) cell's set-operation work; the returned stride caps
 * the full run near `target_elements`. The same stride is applied to
 * every substrate, so reported speedups (cycle ratios) stay
 * meaningful. SC_BENCH_SMOKE=1 shrinks the target 64x for CI-speed
 * sweeps (the check.sh cold/warm leg). See EXPERIMENTS.md.
 */
unsigned autoStride(const graph::CsrGraph &g, gpm::GpmApp app,
                    std::uint64_t target_elements = 16'000'000);

/** SC_BENCH_SMOKE=1: tiny sweep points for CI. Read once. */
bool benchSmoke();

/**
 * Directory BENCH_*.json reports land in: SC_BENCH_DIR, default
 * "bench_results" under the current directory. Created on first use —
 * every bench binary writes through this one path, so runs no longer
 * scatter JSON files across whatever directory they started in.
 */
std::string benchResultsDir();

/** Print the table plus a CSV block for downstream plotting. */
void emitTable(const Table &table);

/**
 * Capture one (plans, graph, stride) GPM run's program privately,
 * outside the ArtifactStore — for benches that time the replay
 * engines themselves (bench/replay_microbench.cc).
 */
trace::BytecodeProgram
captureGpmTrace(const graph::CsrGraph &g,
                const std::vector<gpm::MiningPlan> &plans,
                unsigned root_stride, std::uint64_t *embeddings = nullptr);

/**
 * One (app, graph, stride) sweep point's captured program, prepared
 * by the same api::prepare() step Machine uses: keyed in the
 * process-wide ArtifactStore, so the capture happens exactly once
 * per (app, dataset) for the whole binary and is shared with every
 * other driver in the same process. Drivers hold the result across
 * their config ladder and replay its program per configuration. With
 * SC_ARTIFACT_CACHE=off the point captures privately; cycles are
 * bit-identical either way.
 */
api::Prepared gpmArtifacts(gpm::GpmApp app, const graph::CsrGraph &g,
                           unsigned root_stride);

/** Replay a sweep point's program onto `be` (prepare() verified
 *  it already). */
trace::ReplayResult replayArtifacts(const api::Prepared &artifacts,
                                    backend::ExecBackend &be);

/** steady_clock stopwatch for host wall-clock reporting. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Run n independent sweep points concurrently on the global host
 * pool; results come back in point order, so the emitted tables are
 * byte-identical to a sequential sweep. T must be
 * default-constructible.
 */
template <typename T, typename Fn>
std::vector<T>
runPoints(std::size_t n, Fn &&fn)
{
    return parallelMap<T>(ThreadPool::global(), n,
                          std::forward<Fn>(fn));
}

/**
 * Per-bench report: collects the figure's tables, then finish() (or
 * the destructor) prints the host wall clock and writes
 * BENCH_<name>.json — simulated cycles alongside host seconds, so
 * harness speed is tracked across PRs.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string name);
    ~BenchReport();

    /** emitTable() + record the table for the JSON dump. */
    void emit(const std::string &title, const Table &table);

    /** Attach an extra top-level member to BENCH_<name>.json (e.g.
     *  queue stats); later values win on duplicate keys. */
    void setExtra(const std::string &key, JsonValue value);

    /** Print wall clock + thread count, write BENCH_<name>.json. */
    void finish();

  private:
    std::string name_;
    WallTimer timer_;
    std::vector<std::pair<std::string, std::string>> tables_;
    std::vector<std::pair<std::string, JsonValue>> extras_;
    bool finished_ = false;
};

} // namespace sc::bench

#endif // SPARSECORE_BENCH_BENCH_UTIL_HH
