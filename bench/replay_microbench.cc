/**
 * @file
 * Replay microbenchmark: host wall clock of the generic replay loop
 * (one virtual ExecBackend call per captured call, through a
 * forwarding backend) versus the devirtualized per-backend loops
 * (trace::replayCompiled on the concrete backend, the path every api
 * call takes) on fig07-class GPM captures, for every replay
 * substrate, plus the cost of capturing each program. Every replay's
 * cycles are checksummed against direct execution of the workload on
 * the same backend, so this bench measures only what the engine is
 * allowed to move: how fast the host re-walks a captured program.
 *
 * Writes BENCH_replay.json. `--smoke` runs a seconds-long subset for
 * CI (scripts/check.sh), which also gates the cycle checksums.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/cpu_backend.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "gpm/executor.hh"
#include "graph/generators.hh"
#include "gpm/apps.hh"
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

/** Replays/second of `replay`: whole replays until min_seconds
 *  elapses (at least twice), so short programs are averaged over
 *  many passes. */
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
    } while ((seconds = timer.seconds()) < min_seconds || reps < 2);
    return static_cast<double>(reps) / seconds;
}

/** One backend family's measurements for one program. */
struct FamilyResult
{
    double genericRate = 0, bytecodeRate = 0;
    Cycles direct = 0, generic = 0, bytecode = 0;
};

template <typename Make>
FamilyResult
measureFamily(const graph::CsrGraph &g, gpm::GpmApp app,
              const trace::BytecodeProgram &bc, Make make,
              double min_seconds)
{
    FamilyResult r;
    {
        auto be = make();
        gpm::PlanExecutor executor(g, *be);
        r.direct = executor.runMany(gpm::gpmAppPlans(app)).cycles;
    }
    r.genericRate = measureReplays(
        [&] {
            auto be = make();
            Forwarding fwd(*be);
            return trace::replayCompiled(bc, fwd, false).cycles;
        },
        min_seconds, &r.generic);
    r.bytecodeRate = measureReplays(
        [&] {
            auto be = make();
            return trace::replayCompiled(bc, *be, false).cycles;
        },
        min_seconds, &r.bytecode);
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

    const double min_seconds = smoke ? 0.05 : 0.5;
    std::printf("==== replay microbench: generic loop vs devirtualized "
                "bytecode ====\n");
    std::printf("host wall clock only; cycles are checksummed against "
                "direct execution\n\n");

    // Fig. 7-class workload: power-law graphs, the paper's headline
    // app set. The smoke graph keeps every leg under a second; the
    // full graph is sized so the clique apps stay in the
    // hundreds-of-thousands-of-events range (power-law clique
    // enumeration grows explosively past this).
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

    static const arch::SparseCoreConfig config;
    const auto functional = [] {
        return std::make_unique<backend::FunctionalBackend>();
    };
    const auto cpu = [] {
        return std::make_unique<backend::CpuBackend>(config.core,
                                                     config.mem);
    };
    const auto sparsecore = [] {
        return std::make_unique<backend::SparseCoreBackend>(config);
    };

    bench::BenchReport report("replay");
    Table table({"app", "backend", "events", "generic replays/s",
                 "bytecode replays/s", "speedup"});
    Table capture({"app", "events", "instructions", "code bytes",
                   "bytes/event", "capture ms"});

    bool ok = true;
    double best_speedup = 0;
    for (const gpm::GpmApp app : apps) {
        const bench::WallTimer capture_timer;
        const trace::BytecodeProgram bc =
            bench::captureGpmTrace(g, gpm::gpmAppPlans(app), 1);
        const double capture_seconds = capture_timer.seconds();

        const std::pair<const char *, FamilyResult> families[] = {
            {"functional",
             measureFamily(g, app, bc, functional, min_seconds)},
            {"cpu", measureFamily(g, app, bc, cpu, min_seconds)},
            {"sparsecore",
             measureFamily(g, app, bc, sparsecore, min_seconds)},
        };
        for (const auto &[name, r] : families) {
            if (r.generic != r.direct || r.bytecode != r.direct) {
                std::fprintf(stderr,
                             "FAIL: %s %s replay cycles differ from "
                             "direct execution (%llu generic, %llu "
                             "bytecode, %llu direct)\n",
                             gpm::gpmAppName(app), name,
                             static_cast<unsigned long long>(r.generic),
                             static_cast<unsigned long long>(r.bytecode),
                             static_cast<unsigned long long>(r.direct));
                ok = false;
            }
            const double speedup = r.bytecodeRate / r.genericRate;
            if (std::strcmp(name, "functional") == 0)
                best_speedup = std::max(best_speedup, speedup);
            table.addRow({gpm::gpmAppName(app), name,
                          std::to_string(bc.numEvents()),
                          Table::num(r.genericRate, 1),
                          Table::num(r.bytecodeRate, 1),
                          Table::speedup(speedup)});
        }

        capture.addRow(
            {gpm::gpmAppName(app), std::to_string(bc.numEvents()),
             std::to_string(bc.numInstructions()),
             std::to_string(bc.codeBytes()),
             Table::num(static_cast<double>(bc.codeBytes()) /
                            static_cast<double>(bc.numEvents()),
                        1),
             Table::num(capture_seconds * 1e3, 2)});
    }

    report.emit("replay throughput by engine (wall clock)", table);
    report.emit("capture cost and code density", capture);
    report.finish();

    if (!ok)
        return 1;
    // The devirtualization claim: on the functional substrate, where
    // decode and dispatch ARE the loop, the concrete-backend replay
    // must be at least 5x faster than the generic loop. Gate it so
    // the perf claim cannot silently rot.
    if (best_speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: best functional replay speedup %.2fx < "
                     "5x target\n",
                     best_speedup);
        return 1;
    }
    std::printf("best functional replay speedup: %.1fx (>= 5x "
                "target)\n",
                best_speedup);
    return 0;
}
