#include "api/parallel.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "api/pipeline.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "gpm/executor.hh"
#include "trace/recorder.hh"

namespace sc::api {

namespace {

/** Root-loop chunks per simulated core. */
constexpr unsigned kChunksPerCore = 4;

/** One chunk's functional result and simulated cycles. */
struct ChunkRun
{
    std::uint64_t embeddings = 0;
    Cycles cycles = 0;
};

/**
 * The chunk loop: the root loop splits into num_chunks chunks, stolen
 * dynamically by the host threads; chunk m covers roots
 * { (m + i*num_chunks) * root_stride }. Each chunk prepares its
 * program under its own store key (so concurrent chunks dedup
 * in-flight builds and a warm run skips capture) and replays it onto
 * a private `substrate` backend within the same host task, so the
 * chunk outcome is a pure function of the chunk index.
 */
std::vector<ChunkRun>
mineChunks(gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_chunks,
           Substrate substrate, const arch::SparseCoreConfig &config,
           unsigned root_stride, ThreadPool &pool)
{
    const auto plans = gpm::gpmAppPlans(app);
    RunOptions options;
    options.rootStride = root_stride;
    const std::string run_key =
        traceKey(RunRequest::gpm(app, g, options));
    return parallelMap<ChunkRun>(pool, num_chunks, [&](std::size_t m) {
        const auto chunk = static_cast<unsigned>(m);
        const std::string key = run_key + "/c" + std::to_string(chunk) +
                                "of" + std::to_string(num_chunks);
        const Prepared prepared = prepare(
            key,
            [&](trace::TraceRecorder &recorder) {
                gpm::PlanExecutor executor(g, recorder);
                executor.setRootRange(chunk * root_stride,
                                      num_chunks * root_stride);
                return executor.runMany(plans).embeddings;
            },
            std::nullopt);
        return ChunkRun{prepared.functionalResult(),
                        replay(prepared, substrate, config).cycles};
    });
}

} // namespace

ParallelGpmResult
mineParallel(gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_cores,
             Substrate substrate, const arch::SparseCoreConfig &config,
             unsigned root_stride, ThreadPool &pool)
{
    if (num_cores == 0)
        fatal("need at least one core");
    if (root_stride == 0)
        fatal("root stride must be positive");
    const unsigned num_chunks = num_cores * kChunksPerCore;
    const auto runs = mineChunks(app, g, num_chunks, substrate, config,
                                 root_stride, pool);

    // Ordered reduction: chunk-index order, chunk m attributed to
    // simulated core m % num_cores — bit-identical for any host
    // thread count.
    ParallelGpmResult result;
    result.perCore.assign(num_cores, 0);
    for (unsigned chunk = 0; chunk < num_chunks; ++chunk) {
        result.embeddings += runs[chunk].embeddings;
        result.perCore[chunk % num_cores] += runs[chunk].cycles;
    }
    for (Cycles c : result.perCore)
        result.cycles = std::max(result.cycles, c);
    return result;
}

} // namespace sc::api
