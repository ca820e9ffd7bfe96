#include "api/artifact_store.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "analysis/trace_check.hh"
#include "arch/config.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "trace/replay.hh"

namespace sc::api {

namespace {

std::size_t
cachedTraceBytes(const ArtifactStore::CachedTrace &cached)
{
    return cached.trace.memoryBytes() + sizeof(cached.functionalResult);
}

std::size_t
verdictBytes(const analysis::VerifyReport &report)
{
    std::size_t bytes = sizeof(report);
    for (const analysis::Diagnostic &d : report.diagnostics)
        bytes += sizeof(d) + d.message.size();
    return bytes;
}

std::size_t
summaryBytes(const analysis::ProgramSummary &summary)
{
    return sizeof(summary) +
           summary.profile.size() * sizeof(analysis::PressurePoint);
}

void
appendCounters(std::ostringstream &os, const char *name,
               const CacheStats &stats)
{
    os << name << " " << stats.hits << " hits / " << stats.misses
       << " misses";
    if (stats.evictions)
        os << " / " << stats.evictions << " evicted";
}

} // namespace

std::string
ArtifactStoreStats::str() const
{
    std::ostringstream os;
    os << "artifact store: ";
    appendCounters(os, "graphs", graphs);
    os << " | ";
    appendCounters(os, "traces", traces);
    os << " | ";
    appendCounters(os, "verdicts", verdicts);
    os << " | ";
    appendCounters(os, "su costs", suCosts);
    os << " (" << suCosts.bytes << " bytes)";
    os << " | resident "
       << (graphs.bytes + labeledGraphs.bytes + traces.bytes +
           verdicts.bytes + suCosts.bytes)
       << " bytes";
    return os.str();
}

ArtifactStore::ArtifactStore(std::size_t capacity_bytes)
    : traces_(capacity_bytes, cachedTraceBytes),
      verdicts_(capacity_bytes, verdictBytes),
      summaries_(capacity_bytes, summaryBytes),
      suCosts_(capacity_bytes, &arch::SuCostColumn::bytes)
{
}

ArtifactStore &
ArtifactStore::global()
{
    static ArtifactStore store;
    return store;
}

std::size_t
ArtifactStore::defaultCapacityBytes()
{
    // SC_ARTIFACT_CACHE_BYTES, validated by the common/config loader.
    return config().artifactCacheBytes;
}

std::shared_ptr<const ArtifactStore::CachedTrace>
ArtifactStore::trace(const std::string &key, const CaptureFn &capture)
{
    return traces_.getOrBuild(key, [&] {
        auto cached = std::make_shared<CachedTrace>();
        trace::TraceRecorder recorder;
        cached->functionalResult = capture(recorder);
        cached->trace = recorder.takeTrace();
        return std::shared_ptr<const CachedTrace>(std::move(cached));
    });
}

std::shared_ptr<const trace::BytecodeProgram>
ArtifactStore::program(const std::string &trace_key,
                       const trace::BytecodeProgram &tr, bool *compiled)
{
    const auto cached = traces_.peek(trace_key);
    const bool resident = cached && &cached->trace == &tr;
    if (compiled)
        *compiled = !resident;
    if (resident)
        return {cached, &cached->trace};
    return std::make_shared<const trace::BytecodeProgram>(tr);
}

std::shared_ptr<const analysis::VerifyReport>
ArtifactStore::verdict(const std::string &trace_key,
                       const trace::BytecodeProgram &program,
                       unsigned capacity)
{
    return verdicts_.getOrBuild(verdictKey(trace_key, capacity), [&] {
        analysis::StreamLifetimeChecker::Options options;
        options.maxLiveStreams = capacity;
        return std::make_shared<const analysis::VerifyReport>(
            analysis::verifyBytecode(program, options));
    });
}

std::shared_ptr<const analysis::ProgramSummary>
ArtifactStore::summary(const std::string &trace_key,
                       const trace::BytecodeProgram &program,
                       const arch::SparseCoreConfig &config)
{
    return summaries_.getOrBuild(summaryKey(trace_key, config), [&] {
        return std::make_shared<const analysis::ProgramSummary>(
            analysis::summarizeBytecode(program, config));
    });
}

std::shared_ptr<const arch::SuCostColumn>
ArtifactStore::suCosts(const std::string &trace_key,
                       const trace::BytecodeProgram &program,
                       unsigned window)
{
    return suCosts_.getOrBuild(suCostKey(trace_key, window), [&] {
        return std::make_shared<const arch::SuCostColumn>(
            trace::suCostColumn(program, window));
    });
}

std::shared_ptr<const ArtifactStore::CachedTrace>
ArtifactStore::peekTrace(const std::string &key)
{
    return traces_.peek(key);
}

ArtifactStoreStats
ArtifactStore::stats() const
{
    ArtifactStoreStats stats;
    stats.graphs = graph::graphCacheStats();
    stats.labeledGraphs = graph::labeledGraphCacheStats();
    stats.traces = traces_.stats();
    stats.verdicts = verdicts_.stats();
    stats.suCosts = suCosts_.stats();
    return stats;
}

void
ArtifactStore::clear()
{
    traces_.clear();
    verdicts_.clear();
    summaries_.clear();
    suCosts_.clear();
}

std::string
ArtifactStore::verdictKey(const std::string &trace_key,
                          unsigned capacity)
{
    std::ostringstream os;
    os << trace_key << "/vfy" << capacity;
    return os.str();
}

std::string
ArtifactStore::summaryKey(const std::string &trace_key,
                          const arch::SparseCoreConfig &config)
{
    // Only the arch fields the cost model reads (JobSpec's arch
    // overrides) key the summary; pressure is config-independent.
    std::ostringstream os;
    os << trace_key << "/sum/su" << config.numSus << "w"
       << config.suWindow << "bw" << config.aggregateBandwidth
       << (config.nestedIntersection ? "n1" : "n0");
    return os.str();
}

std::string
ArtifactStore::suCostKey(const std::string &trace_key, unsigned window)
{
    return trace_key + "/su" + std::to_string(window);
}

} // namespace sc::api
