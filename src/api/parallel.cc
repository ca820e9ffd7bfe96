#include "api/parallel.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "api/pipeline.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"
#include "gpm/executor.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

namespace sc::api {

namespace {

/**
 * The chunk loop behind every multi-core entry point: one
 * ParallelGpmResult per entry of `substrates`, in that order.
 *
 * The root loop splits into K * num_cores chunks, stolen dynamically
 * by the host threads; chunk m covers roots
 * { (m + i*M) * root_stride } — the interleaved per-core split, just
 * finer, so a heavy root region spreads over every simulated core AND
 * over every host thread — and is attributed to simulated core
 * m % num_cores. Each chunk prepares its trace once (under its own
 * store key, so concurrent chunks dedup in-flight builds and a warm
 * run skips capture and compile) and replays it onto a private
 * backend per substrate within the same host task, so the chunk
 * outcome is a pure function of the chunk index.
 */
std::vector<ParallelGpmResult>
mineChunks(gpm::GpmApp app, const graph::CsrGraph &g, unsigned num_cores,
           const arch::SparseCoreConfig &config, unsigned root_stride,
           const HostOptions &host, const std::vector<Substrate> &substrates)
{
    if (num_cores == 0)
        fatal("need at least one core");
    if (root_stride == 0)
        fatal("root stride must be positive");
    const auto plans = gpm::gpmAppPlans(app);
    ThreadPool &pool = host.pool ? *host.pool : ThreadPool::global();
    const unsigned num_chunks = num_cores * std::max(1u, host.chunksPerCore);
    RunOptions options;
    options.rootStride = root_stride;
    const std::string run_key =
        traceKey(RunRequest::gpm(app, g, options));

    struct ChunkRun
    {
        std::uint64_t embeddings = 0;
        std::vector<Cycles> cycles; ///< per substrate
    };
    const auto runs = parallelMap<ChunkRun>(
        pool, num_chunks, [&](std::size_t m) {
            const auto chunk = static_cast<unsigned>(m);
            const std::string key = run_key + "/c" +
                                    std::to_string(chunk) + "of" +
                                    std::to_string(num_chunks);
            const Prepared prepared = prepare(
                key,
                [&](trace::TraceRecorder &recorder) {
                    gpm::PlanExecutor executor(g, recorder);
                    executor.setRootRange(chunk * root_stride,
                                          num_chunks * root_stride);
                    return executor.runMany(plans).embeddings;
                },
                std::nullopt);
            ChunkRun run;
            run.embeddings = prepared.functionalResult();
            for (const Substrate substrate : substrates)
                run.cycles.push_back(
                    trace::replayCompiled(*prepared.program,
                                          *makeBackend(substrate, config),
                                          /*verify=*/false)
                        .cycles);
            return run;
        });

    // Ordered reduction: chunk-index order, fixed chunk→core cycle
    // attribution — bit-identical for any host thread count.
    std::vector<ParallelGpmResult> results(substrates.size());
    for (std::size_t s = 0; s < substrates.size(); ++s) {
        ParallelGpmResult &result = results[s];
        result.perCore.assign(num_cores, 0);
        for (unsigned chunk = 0; chunk < num_chunks; ++chunk) {
            result.embeddings += runs[chunk].embeddings;
            result.perCore[chunk % num_cores] += runs[chunk].cycles[s];
        }
        for (Cycles c : result.perCore)
            result.cycles = std::max(result.cycles, c);
    }
    return results;
}

} // namespace

ParallelGpmResult
mineParallelSparseCore(gpm::GpmApp app, const graph::CsrGraph &g,
                       unsigned num_cores,
                       const arch::SparseCoreConfig &config,
                       unsigned root_stride, const HostOptions &host)
{
    return mineChunks(app, g, num_cores, config, root_stride, host,
                      {Substrate::SparseCore})
        .front();
}

ParallelGpmResult
mineParallelCpu(gpm::GpmApp app, const graph::CsrGraph &g,
                unsigned num_cores,
                const arch::SparseCoreConfig &config,
                unsigned root_stride, const HostOptions &host)
{
    return mineChunks(app, g, num_cores, config, root_stride, host,
                      {Substrate::Cpu})
        .front();
}

ParallelComparison
compareParallelGpm(gpm::GpmApp app, const graph::CsrGraph &g,
                   unsigned num_cores,
                   const arch::SparseCoreConfig &config,
                   unsigned root_stride, const HostOptions &host)
{
    auto results = mineChunks(app, g, num_cores, config, root_stride,
                              host, {Substrate::Cpu, Substrate::SparseCore});
    ParallelComparison cmp;
    cmp.functionalResult = results[0].embeddings;
    cmp.baseline = std::move(results[0]);
    cmp.accelerated = std::move(results[1]);
    return cmp;
}

} // namespace sc::api
