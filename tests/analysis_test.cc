/**
 * @file
 * Tests for the stream-program static verifier (src/analysis): golden
 * diagnostics for every rule over the committed fixture programs, CFG
 * construction, the trace-level lifetime checker and its bytecode
 * twin, the run/replay hooks, and a mutation property test (breaking
 * a known-good random program must be flagged).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/summary.hh"
#include "analysis/trace_check.hh"
#include "analysis/verifier.hh"
#include "api/machine.hh"
#include "backend/functional_backend.hh"
#include "isa/assembler.hh"
#include "kernels/spmspm.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;
using analysis::Rule;

namespace {

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(SPARSECORE_TEST_DATA_DIR "/scverify/") + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

analysis::VerifyReport
verifyFixture(const std::string &name)
{
    return analysis::verify(isa::assemble(readFixture(name)));
}

/** True when the report contains `rule` anchored at `pc`. */
bool
hasDiag(const analysis::VerifyReport &report, Rule rule,
        std::uint64_t pc)
{
    for (const auto &d : report.diagnostics)
        if (d.rule == rule && d.pc == pc)
            return true;
    return false;
}

} // namespace

// ---------------- golden diagnostics per rule ----------------

struct GoldenCase
{
    const char *file;
    Rule rule;
    std::uint64_t pc;
};

/**
 * Print a case by its expected anchor pc (the test name already says
 * the fixture). Without this, gtest byte-dumps the struct, and the
 * listed test name would carry the address of `file`, which
 * address-space randomisation changes on every run.
 */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << "pc " << c.pc;
}

class GoldenDiagnostics : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenDiagnostics, FixtureDrawsExactlyItsRule)
{
    const GoldenCase &c = GetParam();
    const auto report = verifyFixture(c.file);
    EXPECT_TRUE(report.hasErrors()) << c.file;
    EXPECT_TRUE(hasDiag(report, c.rule, c.pc))
        << c.file << " expected " << analysis::ruleId(c.rule)
        << " at pc " << c.pc << "; got:\n"
        << report.format();
    // Minimal fixtures: every diagnostic they draw is the one under
    // test (no collateral noise).
    for (const auto &d : report.diagnostics)
        EXPECT_EQ(d.rule, c.rule) << c.file << ": " << d.format();
}

INSTANTIATE_TEST_SUITE_P(
    Rules, GoldenDiagnostics,
    ::testing::Values(
        GoldenCase{"use_before_read.s", Rule::UseBeforeRead, 3},
        GoldenCase{"use_after_free.s", Rule::UseAfterFree, 6},
        GoldenCase{"double_free.s", Rule::DoubleFree, 5},
        GoldenCase{"stream_leak.s", Rule::StreamLeak, 4},
        GoldenCase{"redefine_live.s", Rule::RedefineLive, 4},
        GoldenCase{"value_op_on_key_stream.s",
                   Rule::ValueOpOnKeyStream, 6},
        GoldenCase{"nestinter_without_gfr.s",
                   Rule::NestInterWithoutGfr, 4},
        GoldenCase{"pred_cycle.s", Rule::PredCycle, 9},
        GoldenCase{"stream_overflow.s", Rule::StreamOverflow, 35}),
    [](const auto &info) {
        std::string n = info.param.file;
        n.resize(n.size() - 2); // drop ".s"
        return n;
    });

TEST(Diagnostics, RuleIdsAreStable)
{
    // These ids are output format (scverify prints them; scripts
    // parse them) — changing one is a breaking change.
    EXPECT_STREQ(analysis::ruleId(Rule::UseBeforeRead),
                 "use-before-read");
    EXPECT_STREQ(analysis::ruleId(Rule::UseAfterFree),
                 "use-after-free");
    EXPECT_STREQ(analysis::ruleId(Rule::DoubleFree), "double-free");
    EXPECT_STREQ(analysis::ruleId(Rule::StreamLeak), "stream-leak");
    EXPECT_STREQ(analysis::ruleId(Rule::RedefineLive),
                 "redefine-live");
    EXPECT_STREQ(analysis::ruleId(Rule::ValueOpOnKeyStream),
                 "value-op-on-key-stream");
    EXPECT_STREQ(analysis::ruleId(Rule::NestInterWithoutGfr),
                 "nestinter-without-gfr");
    EXPECT_STREQ(analysis::ruleId(Rule::PredCycle), "pred-cycle");
    EXPECT_STREQ(analysis::ruleId(Rule::StreamOverflow),
                 "stream-overflow");
}

TEST(Diagnostics, FormatCarriesPcRuleAndSeverity)
{
    analysis::Diagnostic d;
    d.rule = Rule::UseAfterFree;
    d.severity = analysis::Severity::Error;
    d.pc = 12;
    d.message = "boom";
    const std::string s = d.format();
    EXPECT_NE(s.find("pc 12"), std::string::npos) << s;
    EXPECT_NE(s.find("error[use-after-free]"), std::string::npos) << s;
    EXPECT_NE(s.find("boom"), std::string::npos) << s;
}

// ---------------- clean programs stay clean ----------------

TEST(Verifier, BalancedProgramIsClean)
{
    const auto report = analysis::verify(isa::assemble(R"(
        LI r1, 0x1000
        LI r2, 8
        LI r3, 1
        S_READ r1, r2, r3, r0
        LI r4, 2
        S_READ r1, r2, r4, r0
        LI r5, 3
        S_INTER r3, r4, r5, r0
        S_FREE r3
        S_FREE r4
        S_FREE r5
        HALT
    )"));
    EXPECT_TRUE(report.clean()) << report.format();
}

TEST(Verifier, LoopWithUnknownSidStaysSilent)
{
    // The sid register is loop-carried (ADDI), so the constant
    // lattice widens to unknown and the lifetime rules must go
    // conservative — no false positives, no crash.
    const auto report = analysis::verify(isa::assemble(R"(
        LI r1, 0x1000
        LI r2, 8
        LI r3, 1
        LI r5, 5
    loop:
        S_READ r1, r2, r3, r0
        S_FREE r3
        ADDI r3, r3, 1
        BLT r3, r5, loop
        HALT
    )"));
    EXPECT_TRUE(report.clean()) << report.format();
}

TEST(Verifier, BranchSkippingFreeStillLeaksOnFallthroughPath)
{
    // Free on one path only: the exit state merges live|freed to Top,
    // which is conservative — but the path that halts directly after
    // the load must still flag the leak when the free is entirely
    // unreachable from it.
    const auto report = analysis::verify(isa::assemble(R"(
        LI r1, 0x1000
        LI r2, 8
        LI r3, 1
        S_READ r1, r2, r3, r0
        HALT
        S_FREE r3
        HALT
    )"));
    EXPECT_TRUE(hasDiag(report, Rule::StreamLeak, 4))
        << report.format();
}

TEST(Verifier, GfrOnOnePathOnlyFlagsNestInter)
{
    // S_LD_GFR on the taken path only: merge gives Top, not Yes, so
    // S_NESTINTER is not dominated and must be flagged.
    const auto report = analysis::verify(isa::assemble(R"(
        LI r1, 0x1000
        LI r2, 8
        LI r3, 1
        S_READ r1, r2, r3, r0
        BEQ r3, r0, skip
        S_LD_GFR r1, r1, r1
    skip:
        S_NESTINTER r3, r5
        S_FREE r3
        HALT
    )"));
    EXPECT_TRUE(hasDiag(report, Rule::NestInterWithoutGfr, 6))
        << report.format();
}

// ---------------- CFG construction ----------------

TEST(Cfg, StraightLineIsOneBlock)
{
    const auto cfg = analysis::buildCfg(isa::assemble(R"(
        LI r1, 1
        LI r2, 2
        HALT
    )"));
    ASSERT_EQ(cfg.blocks.size(), 1u);
    EXPECT_EQ(cfg.blocks[0].first, 0u);
    EXPECT_EQ(cfg.blocks[0].last, 3u);
    EXPECT_TRUE(cfg.blocks[0].succs.empty());
}

TEST(Cfg, BackwardBranchMakesLoop)
{
    const auto cfg = analysis::buildCfg(isa::assemble(R"(
        LI r1, 0
        LI r2, 5
    loop:
        ADDI r1, r1, 1
        BLT r1, r2, loop
        HALT
    )"));
    // Blocks: [0,2) entry, [2,4) loop body, [4,5) halt.
    ASSERT_EQ(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.blocks[0].succs, std::vector<std::uint32_t>{1});
    EXPECT_EQ(cfg.blocks[1].succs, (std::vector<std::uint32_t>{2, 1}));
    EXPECT_TRUE(cfg.blocks[2].succs.empty());
}

TEST(Cfg, BranchPastProgramIsExitEdge)
{
    const auto cfg = analysis::buildCfg(isa::assemble(R"(
        LI r1, 1
        BEQ r1, r0, 100
        HALT
    )"));
    ASSERT_EQ(cfg.blocks.size(), 2u);
    // The out-of-range target contributes no successor; only the
    // fallthrough edge to the HALT block remains.
    EXPECT_EQ(cfg.blocks[0].succs, std::vector<std::uint32_t>{1});
}

// ---------------- trace-level lifetime checking ----------------

namespace {

/** Record a handful of backend calls and return the program. */
template <typename Fn>
trace::BytecodeProgram
record(Fn &&fn)
{
    trace::TraceRecorder rec;
    rec.begin();
    fn(rec);
    return rec.takeTrace();
}

const std::vector<Key> someKeys{1, 2, 3};

// The TraceCheck fixtures: one event sequence per lifetime rule.

trace::BytecodeProgram
balancedTrace()
{
    return record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        const auto b = rec.streamLoad(0x2000, 3, 0, someKeys);
        const auto c =
            rec.setOp(streams::SetOpKind::Intersect, a, b, someKeys,
                      someKeys, noBound, someKeys, 0x3000);
        rec.streamFree(a);
        rec.streamFree(b);
        rec.streamFree(c);
    });
}

trace::BytecodeProgram
leakedStreamTrace()
{
    return record([&](trace::TraceRecorder &rec) {
        rec.streamLoad(0x1000, 3, 0, someKeys);
    });
}

trace::BytecodeProgram
doubleFreeTrace()
{
    return record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        rec.streamFree(a);
        rec.streamFree(a);
    });
}

trace::BytecodeProgram
valueOpOnKeyStreamTrace()
{
    return record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        const auto b =
            rec.streamLoadKv(0x2000, 0x4000, 3, 0, someKeys);
        rec.valueIntersect(a, b, someKeys, someKeys, 0x3000, 0x4000,
                           {}, {});
        rec.streamFree(a);
        rec.streamFree(b);
    });
}

/** A fused scalar run between the free and the double free: the
 *  run's five calls still count as five events. */
trace::BytecodeProgram
doubleFreePastScalarRunTrace()
{
    return record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        rec.streamFree(a);
        for (int i = 0; i < 5; ++i)
            rec.scalarOps(2);
        rec.streamFree(a);
    });
}

/** Three streams live at once: overflows a 2-stream capacity. */
trace::BytecodeProgram
threeLiveStreamsTrace()
{
    return record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        const auto b = rec.streamLoad(0x2000, 3, 0, someKeys);
        const auto c = rec.streamLoad(0x3000, 3, 0, someKeys);
        rec.streamFree(a);
        rec.streamFree(b);
        rec.streamFree(c);
    });
}

} // namespace

TEST(TraceCheck, BalancedTraceIsClean)
{
    const auto report = analysis::verifyBytecode(balancedTrace());
    EXPECT_TRUE(report.clean()) << report.format();
}

TEST(TraceCheck, LeakedStreamIsFlagged)
{
    const auto report = analysis::verifyBytecode(leakedStreamTrace());
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.format();
    EXPECT_EQ(report.diagnostics[0].rule, Rule::StreamLeak);
    EXPECT_EQ(report.diagnostics[0].pc, 1u); // end of the one event
}

TEST(TraceCheck, DoubleFreeIsFlaggedWithEventIndex)
{
    const auto report = analysis::verifyBytecode(doubleFreeTrace());
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.format();
    EXPECT_EQ(report.diagnostics[0].rule, Rule::DoubleFree);
    EXPECT_EQ(report.diagnostics[0].pc, 2u); // third event
    EXPECT_NE(report.diagnostics[0].message.find("streamFree"),
              std::string::npos);
}

TEST(TraceCheck, DoubleFreePastAFusedScalarRun)
{
    // The five scalarOps calls fuse into one instruction, yet the
    // diagnostic pc counts each of them: load, free, 5 ops, free.
    const trace::BytecodeProgram bc = doubleFreePastScalarRunTrace();
    ASSERT_EQ(bc.numInstructions(), 4u);
    ASSERT_EQ(bc.numEvents(), 8u);
    const auto report = analysis::verifyBytecode(bc);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.format();
    EXPECT_EQ(report.diagnostics[0].rule, Rule::DoubleFree);
    EXPECT_EQ(report.diagnostics[0].pc, 7u);
}

TEST(TraceCheck, ValueOpOnKeyLoadedStreamIsFlagged)
{
    const auto report =
        analysis::verifyBytecode(valueOpOnKeyStreamTrace());
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.format();
    EXPECT_EQ(report.diagnostics[0].rule, Rule::ValueOpOnKeyStream);
    EXPECT_EQ(report.diagnostics[0].pc, 2u); // the valueIntersect
    EXPECT_NE(report.diagnostics[0].message.find("valueIntersect"),
              std::string::npos);
}

TEST(TraceCheck, OverflowIsAWarningNotAnError)
{
    // Capture-level overflow is a spill hazard (§4.1), not an error:
    // the report must carry it as a warning and stay error-free.
    analysis::StreamLifetimeChecker::Options options;
    options.maxLiveStreams = 2;
    const auto report =
        analysis::verifyBytecode(threeLiveStreamsTrace(), options);
    EXPECT_FALSE(report.hasErrors()) << report.format();
    ASSERT_EQ(report.warningCount(), 1u) << report.format();
    EXPECT_EQ(report.diagnostics[0].rule, Rule::StreamOverflow);
    EXPECT_EQ(report.diagnostics[0].pc, 2u); // the third load
}

// ---------------- the replay + Machine::run hooks ----------------

TEST(VerifyHooks, ReplayRejectsBadTraceWhenVerifying)
{
    const trace::BytecodeProgram bc = doubleFreeTrace();
    backend::FunctionalBackend be;
    EXPECT_THROW(trace::replayCompiled(bc, be, /*verify=*/true),
                 analysis::VerifyError);
    // Opting out must execute normally (replay tolerates the double
    // free at functional level or faults in the backend — here the
    // functional backend ignores frees of unknown handles).
    backend::FunctionalBackend be2;
    EXPECT_NO_THROW(trace::replayCompiled(bc, be2, /*verify=*/false));
}

TEST(VerifyHooks, MachineRunVerifiedMatchesUnverified)
{
    // A verified run checks its captured trace before replaying it;
    // an unverified unkeyed run executes directly. Both routes must
    // report the same cycles, breakdown and functional result, for
    // keyed (GPM) and unkeyed (store off, tensor) requests alike.
    const auto g = test::randomTestGraph(60, 400, 9);
    const auto a = tensor::generateMatrix(
        24, 30, 160, tensor::MatrixStructure::Uniform, 16, "A");
    const auto b = tensor::generateMatrix(
        30, 20, 150, tensor::MatrixStructure::Uniform, 17, "B");
    const auto t = tensor::generateTensor(12, 10, 16, 200, 18, "T");
    const std::vector<Value> vec(16, 0.5);
    const auto m = tensor::generateMatrix(
        8, 16, 80, tensor::MatrixStructure::Uniform, 19, "M");
    const api::Machine machine;

    const auto requests = [&](const api::RunOptions &options) {
        api::RunOptions nostore = options;
        nostore.artifactCache = false;
        std::vector<std::pair<std::string, api::RunRequest>> out;
        out.emplace_back("gpm TC",
                         api::RunRequest::gpm(gpm::GpmApp::TC, g,
                                              options));
        out.emplace_back("gpm TC nostore",
                         api::RunRequest::gpm(gpm::GpmApp::TC, g,
                                              nostore));
        for (const auto algorithm :
             {kernels::SpmspmAlgorithm::Inner,
              kernels::SpmspmAlgorithm::Outer,
              kernels::SpmspmAlgorithm::Gustavson})
            out.emplace_back(
                std::string("spmspm ") +
                    kernels::spmspmAlgorithmName(algorithm),
                api::RunRequest::spmspm(a, b, algorithm, options));
        out.emplace_back("ttv", api::RunRequest::ttv(t, vec, options));
        out.emplace_back("ttm", api::RunRequest::ttm(t, m, options));
        return out;
    };
    api::RunOptions verified;
    verified.verify = true;
    api::RunOptions unverified;
    unverified.verify = false;
    const auto v_requests = requests(verified);
    const auto u_requests = requests(unverified);

    for (std::size_t i = 0; i < v_requests.size(); ++i) {
        const std::string &label = v_requests[i].first;
        for (const auto substrate :
             {api::Substrate::Cpu, api::Substrate::SparseCore}) {
            const auto v = machine.run(v_requests[i].second, substrate);
            const auto u = machine.run(u_requests[i].second, substrate);
            EXPECT_EQ(v.cycles, u.cycles) << label;
            EXPECT_EQ(v.breakdown.cycles, u.breakdown.cycles) << label;
            EXPECT_EQ(v.functionalResult, u.functionalResult) << label;
        }
    }
}

// ---------------- mutation property test ----------------

namespace {

/** One op of a structured random straight-line stream program. */
struct GenOp
{
    enum class Kind { Load, SetOp, Free } kind;
    std::uint64_t sid = 0;      // Load/Free: the sid
    std::uint64_t a = 0, b = 0; // SetOp: operand sids (sid = output)
};

std::string
materialize(const std::vector<GenOp> &ops)
{
    std::ostringstream out;
    out << "LI r1, 0x1000\nLI r2, 8\n";
    for (const GenOp &op : ops) {
        switch (op.kind) {
          case GenOp::Kind::Load:
            out << "LI r3, " << op.sid << "\n"
                << "S_READ r1, r2, r3, r0\n";
            break;
          case GenOp::Kind::SetOp:
            out << "LI r4, " << op.a << "\nLI r5, " << op.b << "\n"
                << "LI r6, " << op.sid << "\n"
                << "S_INTER r4, r5, r6, r0\n";
            break;
          case GenOp::Kind::Free:
            out << "LI r7, " << op.sid << "\nS_FREE r7\n";
            break;
        }
    }
    out << "HALT\n";
    return out.str();
}

/** Balanced random program: every defined sid is freed exactly once,
 *  set ops only read live sids, never more than 8 live at once. */
std::vector<GenOp>
generateCleanOps(std::mt19937 &rng)
{
    std::vector<GenOp> ops;
    std::vector<std::uint64_t> live;
    std::uint64_t next_sid = 1;
    const unsigned steps =
        8 + static_cast<unsigned>(rng() % 8);
    for (unsigned i = 0; i < steps; ++i) {
        const unsigned choice = rng() % 3;
        if (choice == 0 || live.size() < 2) {
            if (live.size() >= 8)
                continue;
            ops.push_back({GenOp::Kind::Load, next_sid, 0, 0});
            live.push_back(next_sid++);
        } else if (choice == 1) {
            if (live.size() >= 8)
                continue;
            const auto a = live[rng() % live.size()];
            const auto b = live[rng() % live.size()];
            ops.push_back({GenOp::Kind::SetOp, next_sid, a, b});
            live.push_back(next_sid++);
        } else {
            const auto idx = rng() % live.size();
            ops.push_back({GenOp::Kind::Free, live[idx], 0, 0});
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(idx));
        }
    }
    for (const auto sid : live)
        ops.push_back({GenOp::Kind::Free, sid, 0, 0});
    return ops;
}

bool
reportsRule(const analysis::VerifyReport &report, Rule rule)
{
    for (const auto &d : report.diagnostics)
        if (d.rule == rule)
            return true;
    return false;
}

} // namespace

TEST(VerifierProperty, MutatingACleanProgramIsFlagged)
{
    std::mt19937 rng(1234);
    for (unsigned iter = 0; iter < 50; ++iter) {
        const auto ops = generateCleanOps(rng);
        const auto base =
            analysis::verify(isa::assemble(materialize(ops)));
        ASSERT_TRUE(base.clean())
            << "iteration " << iter << ":\n"
            << materialize(ops) << base.format();

        // Mutation 1: drop one free -> that sid must leak.
        std::vector<std::size_t> frees;
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (ops[i].kind == GenOp::Kind::Free)
                frees.push_back(i);
        ASSERT_FALSE(frees.empty());
        auto dropped = ops;
        dropped.erase(dropped.begin() +
                      static_cast<std::ptrdiff_t>(
                          frees[rng() % frees.size()]));
        const auto leak =
            analysis::verify(isa::assemble(materialize(dropped)));
        EXPECT_TRUE(reportsRule(leak, Rule::StreamLeak))
            << "iteration " << iter << ":\n"
            << materialize(dropped) << leak.format();

        // Mutation 2: free an already fully-freed sid again at the
        // end -> double-free.
        auto doubled = ops;
        doubled.push_back(
            {GenOp::Kind::Free, ops[frees[0]].sid, 0, 0});
        const auto dfree =
            analysis::verify(isa::assemble(materialize(doubled)));
        EXPECT_TRUE(reportsRule(dfree, Rule::DoubleFree))
            << "iteration " << iter << ":\n"
            << materialize(doubled) << dfree.format();
    }
}
