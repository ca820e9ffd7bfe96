#include "common/config.hh"

#include <charconv>
#include <cstdlib>

#include "common/logging.hh"

namespace sc {

namespace {

std::optional<std::string>
envLookup(const char *name)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return std::nullopt;
    return std::string(v);
}

bool
oneOf(const std::string &v, std::initializer_list<const char *> set)
{
    for (const char *s : set)
        if (v == s)
            return true;
    return false;
}

/** A boolean knob: off|on|0|1, fatal() on anything else. */
bool
parseSwitch(const char *name, const std::string &v)
{
    if (oneOf(v, {"on", "1"}))
        return true;
    if (!oneOf(v, {"off", "0"}))
        fatal("%s must be off|on|0|1, got '%s'", name, v.c_str());
    return false;
}

} // namespace

Config
loadConfig(
    const std::function<std::optional<std::string>(const char *)>
        &lookup)
{
    Config cfg;

    if (const auto v = lookup("SC_JOB_SCHED")) {
        if (!oneOf(*v, {"fifo", "affinity"}))
            fatal("SC_JOB_SCHED='%s' (expected fifo|affinity)",
                  v->c_str());
        cfg.jobSched = *v;
    }

    if (const auto v = lookup("SC_VERIFY"))
        cfg.verify = parseSwitch("SC_VERIFY", *v);

    if (const auto v = lookup("SC_ARTIFACT_CACHE_BYTES")) {
        // from_chars takes no sign and reports overflow, where strtoull
        // would negate "-1" and saturate past 2^64 - 1.
        const char *const end = v->data() + v->size();
        std::size_t bytes = 0;
        const auto [ptr, ec] = std::from_chars(v->data(), end, bytes);
        if (ec != std::errc{} || ptr != end)
            fatal("SC_ARTIFACT_CACHE_BYTES must be a byte count, "
                  "got '%s'",
                  v->c_str());
        cfg.artifactCacheBytes = bytes;
    }

    if (const auto v = lookup("SC_HOST_THREADS")) {
        char *end = nullptr;
        const long threads = std::strtol(v->c_str(), &end, 10);
        if (end && *end == '\0' && threads >= 1 && threads <= 1024)
            cfg.hostThreads = static_cast<unsigned>(threads);
        else
            warn("ignoring invalid SC_HOST_THREADS='%s'", v->c_str());
    }

    if (const auto v = lookup("SC_BENCH_DIR"))
        cfg.benchDir = *v;

    if (const auto v = lookup("SC_BENCH_SMOKE"))
        cfg.benchSmoke = parseSwitch("SC_BENCH_SMOKE", *v);

    return cfg;
}

const Config &
config()
{
    static const Config cfg = loadConfig(envLookup);
    return cfg;
}

std::vector<ConfigKnob>
describeConfig()
{
    const Config &cfg = config();
    auto row = [](std::string name, std::string value, bool from_env,
                  std::string choices, std::string help) {
        return ConfigKnob{std::move(name), std::move(value),
                          from_env ? "env" : "default",
                          std::move(choices), std::move(help)};
    };
    const auto set = [](const char *name) {
        const char *v = std::getenv(name);
        return v && *v;
    };
    std::vector<ConfigKnob> knobs;
    knobs.push_back(row(
        "SC_JOB_SCHED", cfg.jobSched, set("SC_JOB_SCHED"),
        "fifo|affinity",
        "JobQueue scheduling policy (affinity parks cold-dataset "
        "siblings)"));
    knobs.push_back(row(
        "SC_VERIFY",
        cfg.verify ? (*cfg.verify ? "1" : "0") : "build-type",
        set("SC_VERIFY"), "off|on|0|1",
        "stream-lifetime verifier (default: on in debug builds)"));
    knobs.push_back(row(
        "SC_ARTIFACT_CACHE_BYTES",
        std::to_string(cfg.artifactCacheBytes),
        set("SC_ARTIFACT_CACHE_BYTES"), "<bytes>",
        "per-cache LRU byte budget (default 1 GiB)"));
    knobs.push_back(row(
        "SC_HOST_THREADS",
        cfg.hostThreads ? std::to_string(cfg.hostThreads) : "auto",
        set("SC_HOST_THREADS"), "1..1024",
        "host pool size (auto = hardware concurrency)"));
    knobs.push_back(row(
        "SC_BENCH_DIR", cfg.benchDir, set("SC_BENCH_DIR"), "<dir>",
        "directory BENCH_*.json reports land in"));
    knobs.push_back(row(
        "SC_BENCH_SMOKE", cfg.benchSmoke ? "1" : "0",
        set("SC_BENCH_SMOKE"), "off|on|0|1",
        "shrink bench sweep targets ~64x for CI"));
    return knobs;
}

} // namespace sc
