/**
 * @file
 * Ablations of SparseCore's design choices (beyond the paper's own
 * SU-count and bandwidth sweeps): the SU parallel-comparison window,
 * the scratchpad, the nested-intersection translator, and the
 * software-side IEP optimization that demonstrates the architecture's
 * flexibility claim (§1). Each config ladder fetches the workload's
 * captured program from the ArtifactStore once and replays it per
 * configuration.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "backend/sparsecore_backend.hh"
#include "bench_util.hh"
#include "gpm/iep.hh"
#include "trace/replay.hh"

namespace {

sc::Cycles
replayOn(const sc::api::Prepared &artifacts,
         const sc::arch::SparseCoreConfig &config)
{
    sc::backend::SparseCoreBackend be(config);
    return sc::bench::replayArtifacts(artifacts, be).cycles;
}

} // namespace

int
main()
{
    using namespace sc;
    using gpm::GpmApp;
    arch::SparseCoreConfig base;
    bench::printHeader("Ablations", "design-choice sensitivity", base);
    bench::BenchReport report("ablation_design");

    const graph::CsrGraph &w = graph::loadGraph("W");
    const graph::CsrGraph &e = graph::loadGraph("E");

    // T on W feeds three ladders (SU window, nested intersection,
    // translation buffer): captured once, replayed per config.
    const unsigned t_stride = bench::autoStride(w, GpmApp::T);
    const auto t_on_w = bench::gpmArtifacts(GpmApp::T, w, t_stride);

    // ---- 1. SU comparator window (Fig. 6 parallel comparison) ----
    {
        Table t({"window", "cycles", "vs window=1"});
        const std::vector<unsigned> windows = {1, 2, 4, 8, 16, 32, 64};
        const auto cycles = bench::runPoints<Cycles>(
            windows.size(), [&](std::size_t p) {
                arch::SparseCoreConfig c = base;
                c.suWindow = windows[p];
                return replayOn(t_on_w, c);
            });
        for (std::size_t p = 0; p < windows.size(); ++p)
            t.addRow({std::to_string(windows[p]),
                      std::to_string(cycles[p]),
                      Table::speedup(static_cast<double>(cycles[0]) /
                                     cycles[p])});
        report.emit("SU parallel-comparison window (T on W)", t);
    }

    // ---- 2. scratchpad (stream reuse, §4.2) ----
    {
        Table t({"scratchpad", "cycles"});
        const unsigned stride = bench::autoStride(e, GpmApp::TT);
        const auto tt_on_e =
            bench::gpmArtifacts(GpmApp::TT, e, stride);
        const std::vector<unsigned> sizes_kb = {0, 4, 16, 64};
        const auto cycles = bench::runPoints<Cycles>(
            sizes_kb.size(), [&](std::size_t p) {
                arch::SparseCoreConfig c = base;
                // ~off at 4 bytes
                c.scratchpadBytes =
                    sizes_kb[p] == 0 ? 4 : sizes_kb[p] * 1024;
                return replayOn(tt_on_e, c);
            });
        for (std::size_t p = 0; p < sizes_kb.size(); ++p)
            t.addRow({sizes_kb[p] == 0
                          ? "off"
                          : std::to_string(sizes_kb[p]) + " KB",
                      std::to_string(cycles[p])});
        report.emit("scratchpad (TT on E: reused outer operands)", t);
    }

    // ---- 3. nested intersection (§4.6) ----
    // One trace per app; the nested-off replay lowers each group to
    // the explicit per-element loop, so the ladder isolates the
    // S_NESTINTER instruction itself (same plan, same events).
    {
        Table t({"app", "explicit loop", "S_NESTINTER", "gain"});
        const std::vector<GpmApp> apps = {GpmApp::T, GpmApp::C4,
                                          GpmApp::C5};
        struct Pair
        {
            Cycles with = 0;
            Cycles without = 0;
        };
        const auto cycles = bench::runPoints<Pair>(
            apps.size(), [&](std::size_t p) {
                const unsigned stride = bench::autoStride(w, apps[p]);
                const auto tr =
                    bench::gpmArtifacts(apps[p], w, stride);
                arch::SparseCoreConfig off = base;
                off.nestedIntersection = false;
                return Pair{replayOn(tr, base), replayOn(tr, off)};
            });
        for (std::size_t p = 0; p < apps.size(); ++p)
            t.addRow({gpm::gpmAppName(apps[p]),
                      std::to_string(cycles[p].without),
                      std::to_string(cycles[p].with),
                      Table::speedup(
                          static_cast<double>(cycles[p].without) /
                          cycles[p].with)});
        report.emit("nested intersection (W)", t);
    }

    // ---- 4. translation buffer size (§4.6) ----
    {
        Table t({"entries", "cycles"});
        const std::vector<unsigned> entries = {2, 4, 8, 16, 32};
        const auto cycles = bench::runPoints<Cycles>(
            entries.size(), [&](std::size_t p) {
                arch::SparseCoreConfig c = base;
                c.translationBufferSize = entries[p];
                return replayOn(t_on_w, c);
            });
        for (std::size_t p = 0; p < entries.size(); ++p)
            t.addRow({std::to_string(entries[p]),
                      std::to_string(cycles[p])});
        report.emit(
            "nested-intersection translation buffer (T on W)", t);
    }

    // ---- 5. IEP in software (the flexibility claim, §1) ----
    {
        Table t({"graph", "direct plan", "IEP rewrite", "gain"});
        const std::vector<std::string> keys = {"E", "W"};
        struct Pair
        {
            Cycles direct = 0;
            Cycles iep = 0;
        };
        const auto cycles = bench::runPoints<Pair>(
            keys.size(), [&](std::size_t p) {
                const graph::CsrGraph &g = graph::loadGraph(keys[p]);
                const unsigned stride =
                    bench::autoStride(g, GpmApp::TC);
                const auto tr =
                    bench::gpmArtifacts(GpmApp::TC, g, stride);
                backend::SparseCoreBackend iep_be(base);
                const auto i =
                    gpm::runThreeChainIep(g, iep_be, stride);
                return Pair{replayOn(tr, base), i.cycles};
            });
        for (std::size_t p = 0; p < keys.size(); ++p)
            t.addRow({keys[p], std::to_string(cycles[p].direct),
                      std::to_string(cycles[p].iep),
                      Table::speedup(
                          static_cast<double>(cycles[p].direct) /
                          cycles[p].iep)});
        report.emit("software IEP rewrite for three-chain counting", t);
        std::printf("FlexMiner's hard-wired exploration engine cannot "
                    "adopt this rewrite;\nSparseCore picks it up as "
                    "plain software (the paper's §1 argument).\n");
    }
    return 0;
}
