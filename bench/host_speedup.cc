/**
 * @file
 * Host-parallel runtime demonstration: times a six-core mining run
 * (Table 2 configuration) with a 1-thread host pool vs the default
 * pool, checks that the results are identical, and reports the host
 * wall-clock speedup. On a host with >= 4 hardware threads the
 * speedup should be >= 2x; on a 1-thread host the two runs tie.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "api/parallel.hh"
#include "bench_util.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "graph/datasets.hh"

int
main()
{
    using namespace sc;

    arch::SparseCoreConfig config;
    bench::printHeader("Host speedup",
                       "host wall clock, 1 host thread vs the default "
                       "pool (simulated results are identical)",
                       config);
    bench::BenchReport report("host_speedup");

    ThreadPool serial(1);
    ThreadPool &pooled = ThreadPool::global();
    std::printf("default pool: %u host thread(s)\n\n",
                pooled.numThreads());

    struct Case
    {
        const char *graph;
        gpm::GpmApp app;
    };
    const std::vector<Case> cases = {
        {"B", gpm::GpmApp::T},
        {"E", gpm::GpmApp::T},
        {"B", gpm::GpmApp::C4},
    };

    Table table({"graph", "app", "embeddings", "1 thread (s)",
                 "pooled (s)", "host speedup"});
    for (const Case &c : cases) {
        const graph::CsrGraph &g = graph::loadGraph(c.graph);
        const auto mine = [&](ThreadPool &pool) {
            return api::mineParallel(c.app, g, 6,
                                     api::Substrate::SparseCore, config,
                                     1, pool);
        };

        // Warm-up pass pages the graph in and primes allocators.
        mine(pooled);

        bench::WallTimer t1;
        const auto r1 = mine(serial);
        const double s1 = t1.seconds();

        bench::WallTimer tN;
        const auto rN = mine(pooled);
        const double sN = tN.seconds();

        if (r1.embeddings != rN.embeddings || r1.cycles != rN.cycles)
            panic("host-parallel result diverged on %s/%s", c.graph,
                  gpm::gpmAppName(c.app));

        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", s1);
        const std::string s1_str = buf;
        std::snprintf(buf, sizeof(buf), "%.3f", sN);
        const std::string sN_str = buf;
        table.addRow({c.graph, gpm::gpmAppName(c.app),
                      std::to_string(r1.embeddings), s1_str, sN_str,
                      Table::speedup(s1 / sN)});
    }
    report.emit("six simulated cores, chunked root split", table);
    return 0;
}
