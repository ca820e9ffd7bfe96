/**
 * @file
 * Figure 12: SparseCore speedup (vs the 1-SU configuration) with 1,
 * 2, 4, 8, 16 SUs, for all nine GPM apps on B, E, F, W. Each (app,
 * graph) point fetches its trace and compiled program from the
 * ArtifactStore — captured and compiled exactly once — and replays
 * them across the SU ladder independently on the host pool.
 *
 * Every ladder point also self-gates the static cost-bound analysis:
 * the [lower, upper] interval summarizeTrace derives for the point's
 * config must bracket the dynamically simulated cycles (check.sh
 * greps the confirmation line).
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/summary.hh"
#include "backend/sparsecore_backend.hh"
#include "bench_util.hh"
#include "trace/replay.hh"

int
main()
{
    using namespace sc;
    arch::SparseCoreConfig base;
    bench::printHeader("Figure 12", "varying the number of SUs", base);

    bench::BenchReport report("fig12");
    const std::vector<unsigned> su_counts = {1, 2, 4, 8, 16};
    std::atomic<unsigned> bracketed{0};
    std::atomic<unsigned> ladder_points{0};
    for (const gpm::GpmApp app : gpm::allGpmApps()) {
        const auto keys = graph::smallGraphKeys();
        using Row = std::vector<std::string>;
        const auto rows = bench::runPoints<Row>(
            keys.size(), [&](std::size_t p) {
                const std::string &key = keys[p];
                const graph::CsrGraph &g = graph::loadGraph(key);
                const unsigned stride =
                    bench::autoStride(g, app, 8'000'000);
                const auto artifacts =
                    bench::gpmArtifacts(app, g, stride);
                Row row = {key + (stride > 1 ? "*" : "")};
                Cycles one_su = 0;
                for (const unsigned sus : su_counts) {
                    arch::SparseCoreConfig config = base;
                    config.numSus = sus;
                    backend::SparseCoreBackend be(config);
                    const Cycles cyc =
                        bench::replayArtifacts(artifacts, be).cycles;
                    const analysis::ProgramSummary summary =
                        analysis::summarizeTrace(
                            artifacts.trace(), config);
                    ladder_points.fetch_add(1);
                    if (summary.cost.valid &&
                        summary.cost.contains(cyc))
                        bracketed.fetch_add(1);
                    else
                        std::fprintf(
                            stderr,
                            "fig12: bounds [%llu, %llu] miss %llu "
                            "cycles (%s on %s, %u SUs)\n",
                            static_cast<unsigned long long>(
                                summary.cost.lower),
                            static_cast<unsigned long long>(
                                summary.cost.upper),
                            static_cast<unsigned long long>(cyc),
                            gpm::gpmAppName(app), key.c_str(), sus);
                    if (sus == 1)
                        one_su = cyc;
                    row.push_back(Table::speedup(
                        static_cast<double>(one_su) /
                        static_cast<double>(cyc)));
                }
                return row;
            });
        Table table({"graph", "1 SU", "2 SU", "4 SU", "8 SU",
                     "16 SU"});
        for (const Row &row : rows)
            table.addRow(row);
        report.emit(gpm::gpmAppName(app), table);
    }
    if (bracketed.load() != ladder_points.load()) {
        std::fprintf(stderr,
                     "fig12: static bounds missed dynamic cycles at "
                     "%u of %u ladder points\n",
                     ladder_points.load() - bracketed.load(),
                     ladder_points.load());
        return 1;
    }
    std::printf("fig12: static cost bounds bracket dynamic cycles at "
                "all %u ladder points\n",
                ladder_points.load());
    return 0;
}
