/**
 * @file
 * sc::Config — the one documented loader for every SC_* environment
 * knob. Before this existed each subsystem called getenv() on its own
 * schedule with its own parsing rules; now the process-wide defaults
 * are read once, validated in one place, and introspectable
 * (describeConfig() backs the CLI's --dump-config and the README
 * table).
 *
 * Precedence, highest first:
 *   1. per-job / per-call overrides (JobSpec fields, RunOptions, a
 *      ThreadPool passed to a call) — always win;
 *   2. the environment (this loader);
 *   3. built-in defaults.
 *
 * The knobs:
 *
 *   SC_JOB_SCHED           fifo|affinity         JobQueue scheduling policy
 *   SC_VERIFY              off|on|0|1            stream-lifetime verifier
 *   SC_ARTIFACT_CACHE_BYTES <bytes>              per-cache LRU budget
 *   SC_HOST_THREADS        1..1024               host pool size
 *   SC_BENCH_DIR           <dir>                 BENCH_*.json directory
 *   SC_BENCH_SMOKE         off|on|0|1            tiny CI sweep points
 *
 * The host set-op kernels (AVX2 or scalar, by CPUID) and the set
 * index policy (Auto) are not knobs: both move host wall clock only.
 *
 * Enum-valued knobs are stored as validated lowercase strings and
 * mapped to their enums by the owning subsystem (api/job_queue.cc),
 * keeping this layer dependency-free. Numeric and boolean knobs are
 * parsed here: fatal() on a nonsense boolean or byte count, warn +
 * fallback on a bad thread count.
 */

#ifndef SPARSECORE_COMMON_CONFIG_HH
#define SPARSECORE_COMMON_CONFIG_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace sc {

/** Resolved process-wide defaults for every SC_* knob. */
struct Config
{
    /** SC_JOB_SCHED: "fifo" or "affinity" (the default). */
    std::string jobSched = "affinity";
    /** SC_VERIFY: nullopt = build-type default (debug on). */
    std::optional<bool> verify;
    /** SC_ARTIFACT_CACHE_BYTES (default 1 GiB per cache). */
    std::size_t artifactCacheBytes = std::size_t{1} << 30;
    /** SC_HOST_THREADS: 0 = hardware_concurrency(). */
    unsigned hostThreads = 0;
    /** SC_BENCH_DIR: where BENCH_*.json reports land. */
    std::string benchDir = "bench_results";
    /** SC_BENCH_SMOKE: shrink bench sweep targets 64x for CI. */
    bool benchSmoke = false;
};

/**
 * The process-wide configuration, loaded from the environment exactly
 * once (first call). Reads after the first are lock-free.
 */
const Config &config();

/**
 * Pure loader: resolve a Config from `lookup` (name -> value, nullopt
 * when unset). This is config()'s implementation and the unit-test
 * entry point — tests inject environments without mutating the
 * process. fatal()s (throws SimError) on unparseable numeric/boolean
 * values; unknown enum strings are rejected here too so a typo fails
 * at startup, not mid-batch.
 */
Config loadConfig(
    const std::function<std::optional<std::string>(const char *)>
        &lookup);

/** One knob's documentation row for --dump-config / the README. */
struct ConfigKnob
{
    std::string name;    ///< environment variable
    std::string value;   ///< resolved value (process config)
    std::string source;  ///< "env" or "default"
    std::string choices; ///< accepted values, human-readable
    std::string help;    ///< one-line description
};

/** Every knob with its resolved value and provenance. */
std::vector<ConfigKnob> describeConfig();

} // namespace sc

#endif // SPARSECORE_COMMON_CONFIG_HH
