/**
 * @file
 * Replay microbenchmark: host wall clock of the generic replay loop
 * (one virtual ExecBackend call per captured call, through a
 * forwarding backend) versus the devirtualized per-backend loops
 * (trace::replayCompiled on the concrete backend, the path every api
 * call takes) on fig07-class GPM captures and an FSM capture, on both
 * timing substrates, plus the cost of capturing each program. GPM
 * programs are dominated by set ops the timing models cost per
 * element; FSM programs are many cheap scalar events, where the
 * per-call dispatch is a visible share of replay. Every capture and
 * every reference is api::execute of the cell's RunRequest (into a
 * TraceRecorder, or onto a fresh backend), and every replay's cycles
 * are checksummed against that direct execution on the same backend,
 * so this bench measures only what the engine is allowed to move:
 * how fast the host re-walks a captured program. Sparsecore cells
 * replay with the program's SU cost column attached, as the api paths
 * do: the first replay of a cell builds the column and is reported on
 * its own, and every timed sample reads it.
 *
 * One timing of a cell on a shared host can read several-fold off
 * the next, so each cell is sampled kSamples times, generic and
 * devirtualized samples interleaved, and reported as the median
 * replays/s with its interquartile range.
 *
 * Writes BENCH_replay.json. `--smoke` runs a seconds-long subset for
 * CI (scripts/check.sh); either mode exits 1 when a replay's cycles
 * differ from direct execution.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/pipeline.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "gpm/apps.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;
using backend::BackendStream;

namespace {

/**
 * Forwards every hook to a concrete backend. replayCompiled() does
 * not recognise the wrapper, so it takes the generic loop: one
 * virtual call per captured call, the dispatch a per-call walker
 * pays, while the forward itself devirtualizes (B is final).
 */
template <typename B>
class Forwarding final : public backend::ExecBackend
{
  public:
    explicit Forwarding(B &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    void begin() override { inner_.begin(); }
    Cycles finish() override { return inner_.finish(); }
    sim::CycleBreakdown
    breakdown() const override
    {
        return inner_.breakdown();
    }
    Caps caps() const override { return inner_.caps(); }

    void scalarOps(std::uint64_t n) override { inner_.scalarOps(n); }
    void
    scalarBranch(std::uint64_t pc, bool taken) override
    {
        inner_.scalarBranch(pc, taken);
    }
    void scalarLoad(Addr addr) override { inner_.scalarLoad(addr); }
    BackendStream
    streamLoad(Addr key_addr, std::uint32_t length, unsigned priority,
               streams::KeySpan keys) override
    {
        return inner_.streamLoad(key_addr, length, priority, keys);
    }
    BackendStream
    streamLoadKv(Addr key_addr, Addr val_addr, std::uint32_t length,
                 unsigned priority, streams::KeySpan keys) override
    {
        return inner_.streamLoadKv(key_addr, val_addr, length, priority,
                                   keys);
    }
    void streamFree(BackendStream h) override { inner_.streamFree(h); }
    BackendStream
    setOp(streams::SetOpKind kind, BackendStream a, BackendStream b,
          streams::KeySpan ak, streams::KeySpan bk, Key bound,
          streams::KeySpan result, Addr out_addr) override
    {
        return inner_.setOp(kind, a, b, ak, bk, bound, result, out_addr);
    }
    void
    setOpCount(streams::SetOpKind kind, BackendStream a, BackendStream b,
               streams::KeySpan ak, streams::KeySpan bk, Key bound,
               std::uint64_t count) override
    {
        inner_.setOpCount(kind, a, b, ak, bk, bound, count);
    }
    void
    valueIntersect(BackendStream a, BackendStream b, streams::KeySpan ak,
                   streams::KeySpan bk, Addr a_val, Addr b_val,
                   std::span<const std::uint32_t> match_a,
                   std::span<const std::uint32_t> match_b) override
    {
        inner_.valueIntersect(a, b, ak, bk, a_val, b_val, match_a,
                              match_b);
    }
    void
    denseValueIntersect(BackendStream a, BackendStream b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        Addr a_val, Addr b_val,
                        std::span<const std::uint32_t> match_a,
                        std::span<const std::uint32_t> match_b) override
    {
        inner_.denseValueIntersect(a, b, ak, bk, a_val, b_val, match_a,
                                   match_b);
    }
    BackendStream
    valueMerge(BackendStream a, BackendStream b, streams::KeySpan ak,
               streams::KeySpan bk, Addr a_val, Addr b_val,
               std::uint64_t result_len, Addr out_addr) override
    {
        return inner_.valueMerge(a, b, ak, bk, a_val, b_val, result_len,
                                 out_addr);
    }
    void
    nestedIntersect(BackendStream s, streams::KeySpan s_keys,
                    const std::vector<backend::NestedItem> &elems) override
    {
        inner_.nestedIntersect(s, s_keys, elems);
    }
    void consumeStream(BackendStream h) override { inner_.consumeStream(h); }
    void
    iterateStream(BackendStream h, std::uint64_t n, unsigned ops) override
    {
        inner_.iterateStream(h, n, ops);
    }

  private:
    B &inner_;
};

/** Samples per cell and engine. */
constexpr int kSamples = 5;

/** Replays/second of `replay`: whole replays until min_seconds
 *  elapses (at least one), so short programs are averaged over many
 *  passes. */
template <typename Replay>
double
measureReplays(Replay &&replay, double min_seconds, Cycles *cycles)
{
    std::size_t reps = 0;
    double seconds = 0;
    const bench::WallTimer timer;
    do {
        *cycles = replay();
        ++reps;
    } while ((seconds = timer.seconds()) < min_seconds);
    return static_cast<double>(reps) / seconds;
}

/** Median and quartiles of one engine's samples. */
struct Spread
{
    double q1 = 0, median = 0, q3 = 0;

    explicit Spread(std::vector<double> samples)
    {
        std::sort(samples.begin(), samples.end());
        // Linear interpolation between the closest ranks.
        const auto at = [&samples](double p) {
            const double pos = p * static_cast<double>(samples.size() - 1);
            const auto lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, samples.size() - 1);
            return samples[lo] +
                   (pos - static_cast<double>(lo)) *
                       (samples[hi] - samples[lo]);
        };
        q1 = at(0.25);
        median = at(0.5);
        q3 = at(0.75);
    }

    /** "q1-q3": one CSV field. */
    std::string
    iqr() const
    {
        return Table::num(q1) + "-" + Table::num(q3);
    }
};

/** One cell: a named workload. */
struct Cell
{
    std::string name;
    api::RunRequest request;
};

/** One backend family's measurements for one program. */
struct FamilyResult
{
    std::vector<double> generic, bytecode; ///< replays/s samples
    /** The first devirtualized replay; on sparsecore it includes
     *  building the SU cost column the timed samples read. */
    double firstSeconds = 0;
    Cycles direct = 0;
    bool cyclesMatch = true;
};

template <typename Make>
FamilyResult
measureFamily(const char *name, const Cell &cell,
              const trace::BytecodeProgram &bc, Make make,
              double min_seconds)
{
    using Backend = typename decltype(make())::element_type;
    constexpr bool sparsecore =
        std::is_same_v<Backend, backend::SparseCoreBackend>;
    FamilyResult r;
    r.direct = api::execute(cell.request, *make()).cycles;
    std::shared_ptr<const arch::SuCostColumn> column;
    const auto fresh = [&] {
        auto be = make();
        if constexpr (sparsecore)
            be->engine().useSuCosts(column);
        return be;
    };
    const auto generic = [&] {
        auto be = fresh();
        Forwarding fwd(*be);
        return trace::replayCompiled(bc, fwd, false).cycles;
    };
    const auto bytecode = [&] {
        auto be = fresh();
        return trace::replayCompiled(bc, *be, false).cycles;
    };

    unsigned window = 0;
    if constexpr (sparsecore)
        window = make()->engine().config().suWindow;
    const bench::WallTimer first_timer;
    if constexpr (sparsecore)
        column = std::make_shared<const arch::SuCostColumn>(
            trace::suCostColumn(bc, window));
    const Cycles first_cycles = bytecode();
    r.firstSeconds = first_timer.seconds();
    if (first_cycles != r.direct) {
        std::fprintf(stderr,
                     "FAIL: %s %s first replay cycles differ from direct "
                     "execution (%llu replay, %llu direct)\n",
                     cell.name.c_str(), name,
                     static_cast<unsigned long long>(first_cycles),
                     static_cast<unsigned long long>(r.direct));
        r.cyclesMatch = false;
    }
    // Alternate which engine goes first, so drift in the host's load
    // lands on both.
    for (int i = 0; i < kSamples; ++i) {
        Cycles generic_cycles = 0, bytecode_cycles = 0;
        const auto sampleGeneric = [&] {
            r.generic.push_back(
                measureReplays(generic, min_seconds, &generic_cycles));
        };
        const auto sampleBytecode = [&] {
            r.bytecode.push_back(
                measureReplays(bytecode, min_seconds, &bytecode_cycles));
        };
        if (i % 2 == 0) {
            sampleGeneric();
            sampleBytecode();
        } else {
            sampleBytecode();
            sampleGeneric();
        }
        if (generic_cycles != r.direct || bytecode_cycles != r.direct) {
            std::fprintf(stderr,
                         "FAIL: %s %s replay cycles differ from direct "
                         "execution (%llu generic, %llu bytecode, %llu "
                         "direct)\n",
                         cell.name.c_str(), name,
                         static_cast<unsigned long long>(generic_cycles),
                         static_cast<unsigned long long>(bytecode_cycles),
                         static_cast<unsigned long long>(r.direct));
            r.cyclesMatch = false;
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const double min_seconds = smoke ? 0.02 : 0.3;
    std::printf("==== replay microbench: generic loop vs devirtualized "
                "bytecode ====\n");
    std::printf("host wall clock only; cycles are checksummed against "
                "direct execution; %d samples per cell, median and "
                "interquartile range (q1-q3); sparsecore replays read "
                "the program's SU cost column, which its first replay "
                "builds\n\n",
                kSamples);

    // Fig. 7-class workload: power-law graphs, the paper's headline
    // app set. The smoke graph keeps every leg under a second; the
    // full graph is sized so the clique apps stay in the
    // hundreds-of-thousands-of-events range (power-law clique
    // enumeration grows explosively past this). FSM mines the
    // citeseer-class dataset with 8 labels; smoke raises the support
    // so fewer patterns survive.
    const auto g =
        smoke ? graph::generateChungLu(600, 9'000, 120, 2.2, 42,
                                       "power-law")
              : graph::generateChungLu(1500, 24'000, 250, 2.1, 42,
                                       "power-law");
    const std::vector<gpm::GpmApp> apps =
        smoke ? std::vector<gpm::GpmApp>{gpm::GpmApp::T,
                                         gpm::GpmApp::C4}
              : std::vector<gpm::GpmApp>{gpm::GpmApp::T,
                                         gpm::GpmApp::TC,
                                         gpm::GpmApp::TT,
                                         gpm::GpmApp::C4,
                                         gpm::GpmApp::C5};
    const graph::LabeledGraph &labeled = graph::loadLabeledGraph("C", 8);
    const std::uint64_t support = smoke ? 500 : 100;

    std::vector<Cell> cells;
    for (const gpm::GpmApp app : apps)
        cells.push_back({gpm::gpmAppName(app), api::RunRequest::gpm(app, g)});
    cells.push_back({"FSM C/" + std::to_string(support),
                     api::RunRequest::fsm(labeled, support)});

    static const arch::SparseCoreConfig config;
    const auto cpu = [] {
        return std::make_unique<backend::CpuBackend>(config.core,
                                                     config.mem);
    };
    const auto sparsecore = [] {
        return std::make_unique<backend::SparseCoreBackend>(config);
    };

    bench::BenchReport report("replay");
    Table table({"workload", "backend", "events", "first replay ms",
                 "generic replays/s", "generic IQR", "bytecode replays/s",
                 "bytecode IQR", "speedup"});
    Table capture({"workload", "events", "instructions", "code bytes",
                   "bytes/event", "capture ms"});

    bool ok = true;
    for (const Cell &cell : cells) {
        const bench::WallTimer capture_timer;
        trace::TraceRecorder recorder;
        api::execute(cell.request, recorder);
        const trace::BytecodeProgram bc = recorder.takeTrace();
        const double capture_seconds = capture_timer.seconds();

        const std::pair<const char *, FamilyResult> families[] = {
            {"cpu", measureFamily("cpu", cell, bc, cpu, min_seconds)},
            {"sparsecore", measureFamily("sparsecore", cell, bc,
                                         sparsecore, min_seconds)},
        };
        for (const auto &[name, r] : families) {
            ok = ok && r.cyclesMatch;
            const Spread generic(r.generic), bytecode(r.bytecode);
            table.addRow({cell.name, name,
                          std::to_string(bc.numEvents()),
                          Table::num(r.firstSeconds * 1e3, 2),
                          Table::num(generic.median), generic.iqr(),
                          Table::num(bytecode.median), bytecode.iqr(),
                          Table::speedup(bytecode.median /
                                         generic.median)});
        }

        capture.addRow(
            {cell.name, std::to_string(bc.numEvents()),
             std::to_string(bc.numInstructions()),
             std::to_string(bc.codeBytes()),
             Table::num(static_cast<double>(bc.codeBytes()) /
                            static_cast<double>(bc.numEvents()),
                        1),
             Table::num(capture_seconds * 1e3, 2)});
    }

    report.setExtra("samples_per_cell",
                    JsonValue::number(std::uint64_t{kSamples}));
    report.emit("replay throughput by engine (wall clock)", table);
    report.emit("capture cost and code density", capture);
    report.finish();
    return ok ? 0 : 1;
}
