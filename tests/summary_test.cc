/**
 * @file
 * Tests for the quantitative analyses (analysis/summary): per-point
 * pressure profiles, the static [lower, upper] cost interval that
 * must bracket dynamically simulated cycles across the GPM / FSM /
 * tensor sweeps and arch configs, trace-vs-SCBC summary parity,
 * ArchConfig-derived verifier capacity with the error-vs-warning
 * severity boundary, deterministic (pc, sid, rule) diagnostic
 * ordering behind the byte-stable --json emitters, chunked
 * mineParallel*-style traces, and rejection of corrupt or truncated
 * SCBC images.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/summary.hh"
#include "analysis/trace_check.hh"
#include "analysis/verifier.hh"
#include "analysis/verifying_backend.hh"
#include "api/parallel.hh"
#include "arch/config.hh"
#include "backend/functional_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "gpm/apps.hh"
#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "isa/assembler.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"
#include "tensor/tensor_gen.hh"
#include "test_util.hh"
#include "trace/compile.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"

using namespace sc;
using analysis::Rule;

namespace {

/** The arch ladder the bracket property runs against: default plus
 *  points that stress each cost-model resource (SU count, window,
 *  stream bandwidth, lowered nested intersection). */
std::vector<arch::SparseCoreConfig>
sweepConfigs()
{
    std::vector<arch::SparseCoreConfig> configs(5);
    configs[1].numSus = 1;
    configs[2].numSus = 8;
    configs[2].suWindow = 8;
    configs[3].aggregateBandwidth = 8;
    configs[3].nestedIntersection = false;
    configs[4].aggregateBandwidth = 64;
    configs[4].suWindow = 64;
    return configs;
}

/** The bracket property plus trace/SCBC parity for one trace: at
 *  every config, static bounds must contain the dynamic cycles and
 *  the bytecode-side summary must match the trace-side one. */
void
expectBrackets(const trace::Trace &tr, const std::string &label)
{
    const trace::BytecodeProgram bc = trace::compileTrace(tr);
    for (const arch::SparseCoreConfig &config : sweepConfigs()) {
        const analysis::ProgramSummary summary =
            analysis::summarizeTrace(tr, config);
        ASSERT_TRUE(summary.cost.valid) << label;
        EXPECT_LE(summary.cost.lower, summary.cost.upper) << label;

        backend::SparseCoreBackend be(config);
        const Cycles cycles =
            trace::replay(tr, be, /*verify=*/false).cycles;
        EXPECT_TRUE(summary.cost.contains(cycles))
            << label << ": [" << summary.cost.lower << ", "
            << summary.cost.upper << "] misses " << cycles
            << " cycles (sus=" << config.numSus
            << " window=" << config.suWindow
            << " bw=" << config.aggregateBandwidth
            << " nested=" << config.nestedIntersection << ")";

        const analysis::ProgramSummary from_bc =
            analysis::summarizeBytecode(bc, config);
        EXPECT_EQ(analysis::jsonValue(from_bc).dump(),
                  analysis::jsonValue(summary).dump())
            << label << ": SCBC summary diverged from the trace's";
    }
}

trace::Trace
record(const std::function<void(trace::TraceRecorder &)> &fn)
{
    trace::TraceRecorder rec;
    rec.begin();
    fn(rec);
    return rec.takeTrace();
}

const std::vector<Key> someKeys{1, 2, 3};

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

// ---------------- the bracket property ----------------

TEST(CostBounds, GpmAppSweepBracketsDynamicCycles)
{
    const auto g = test::randomTestGraph(100, 700, 5);
    for (const gpm::GpmApp app : gpm::allGpmApps()) {
        trace::TraceRecorder rec;
        gpm::PlanExecutor executor(g, rec);
        executor.runMany(gpm::gpmAppPlans(app));
        expectBrackets(rec.takeTrace(),
                       std::string("gpm ") + gpm::gpmAppName(app));
    }
}

TEST(CostBounds, FsmSweepBracketsDynamicCycles)
{
    auto base = test::randomTestGraph(60, 350, 13);
    std::vector<graph::Label> labels(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        labels[v] = static_cast<graph::Label>(v % 3);
    const graph::LabeledGraph lg(std::move(base), labels);

    trace::TraceRecorder rec;
    gpm::runFsm(lg, rec, 2);
    expectBrackets(rec.takeTrace(), "fsm");
}

TEST(CostBounds, TensorKernelSweepBracketsDynamicCycles)
{
    const auto a = tensor::generateMatrix(
        30, 40, 220, tensor::MatrixStructure::Uniform, 31, "A");
    const auto b = tensor::generateMatrix(
        40, 25, 200, tensor::MatrixStructure::Uniform, 32, "B");
    for (const auto algorithm : {kernels::SpmspmAlgorithm::Inner,
                                 kernels::SpmspmAlgorithm::Outer,
                                 kernels::SpmspmAlgorithm::Gustavson}) {
        trace::TraceRecorder rec;
        kernels::runSpmspm(a, b, algorithm, rec);
        expectBrackets(rec.takeTrace(), "spmspm");
    }

    const auto t = tensor::generateTensor(15, 12, 24, 300, 33, "T");
    const std::vector<Value> vec(24, 0.5);
    {
        trace::TraceRecorder rec;
        kernels::runTtv(t, vec, rec);
        expectBrackets(rec.takeTrace(), "ttv");
    }
    const auto m = tensor::generateMatrix(
        10, 24, 110, tensor::MatrixStructure::Uniform, 34, "M");
    {
        trace::TraceRecorder rec;
        kernels::runTtm(t, m, rec);
        expectBrackets(rec.takeTrace(), "ttm");
    }
}

TEST(CostBounds, CommittedGoldenTraceBrackets)
{
    const auto tr = trace::Trace::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.bin");
    expectBrackets(tr, "golden trace");
}

TEST(CostBounds, ChunkedParallelTracesBracketAndVerifyClean)
{
    // The mineParallel* split: chunk m of M covers roots
    // { (m + i*M) * stride }. Every chunk's trace must be
    // verifier-clean, replay through the VerifyingBackend without a
    // throw, and satisfy the bracket property; the chunk functional
    // results must sum to the parallel miner's.
    const auto g = test::randomTestGraph(80, 500, 7);
    const gpm::GpmApp app = gpm::GpmApp::TC;
    const arch::SparseCoreConfig config;
    constexpr unsigned kChunks = 4;

    api::HostOptions host;
    host.chunksPerCore = 2;
    host.artifactCache = false;
    const auto parallel =
        api::mineParallelSparseCore(app, g, 2, config, 1, host);

    std::uint64_t chunk_total = 0;
    for (unsigned chunk = 0; chunk < kChunks; ++chunk) {
        trace::TraceRecorder rec;
        gpm::PlanExecutor executor(g, rec);
        executor.setRootRange(chunk, kChunks);
        chunk_total +=
            executor.runMany(gpm::gpmAppPlans(app)).embeddings;
        const trace::Trace tr = rec.takeTrace();

        const auto report = analysis::verifyTrace(tr);
        EXPECT_TRUE(report.clean())
            << "chunk " << chunk << ":\n"
            << report.format();

        backend::FunctionalBackend inner;
        analysis::VerifyingBackend vbe(inner);
        EXPECT_NO_THROW(trace::replayEvents(tr, vbe))
            << "chunk " << chunk;

        expectBrackets(tr, "chunk " + std::to_string(chunk));
    }
    EXPECT_EQ(chunk_total, parallel.embeddings);
}

// ---------------- pressure profiles ----------------

namespace {

const char *const kThreeStreamProgram = R"(
LI r1, 4096
LI r2, 8
LI r3, 1
S_READ r1, r2, r3, r0
LI r6, 2
S_READ r1, r2, r6, r0
LI r7, 3
S_INTER r3, r6, r7, r0
S_FREE r3
S_FREE r6
S_FREE r7
HALT
)";

} // namespace

TEST(Pressure, ProgramProfileIsExactOnStraightLine)
{
    const isa::Program program = isa::assemble(kThreeStreamProgram);
    const analysis::ProgramSummary summary =
        analysis::summarizeProgram(program);

    EXPECT_TRUE(summary.pressureExact);
    EXPECT_EQ(summary.defines, 3u);
    EXPECT_EQ(summary.frees, 3u);
    EXPECT_EQ(summary.maxPressure, 3u);
    EXPECT_EQ(summary.maxPressurePc, 7u); // the S_INTER define
    ASSERT_EQ(summary.profile.size(), program.size());
    EXPECT_EQ(summary.points, program.size());
    // Live counts step 1 -> 2 -> 3 at the defines, back to 0 at the
    // frees; the profile point at a pc is the count *after* it.
    EXPECT_EQ(summary.profile[3].live, 1u);
    EXPECT_EQ(summary.profile[5].live, 2u);
    EXPECT_EQ(summary.profile[7].live, 3u);
    EXPECT_EQ(summary.profile[10].live, 0u);
    // ISA programs have no event stream to charge, so no cost bounds.
    EXPECT_FALSE(summary.cost.valid);
}

TEST(Pressure, TraceWatermarkProfileMatchesChecker)
{
    const auto tr = record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        const auto b = rec.streamLoad(0x2000, 3, 0, someKeys);
        const auto c =
            rec.setOp(streams::SetOpKind::Intersect, a, b, someKeys,
                      someKeys, noBound, someKeys, 0x3000);
        rec.streamFree(a);
        rec.streamFree(b);
        rec.streamFree(c);
    });
    const arch::SparseCoreConfig config;
    const analysis::ProgramSummary summary =
        analysis::summarizeTrace(tr, config);
    EXPECT_TRUE(summary.pressureExact);
    EXPECT_EQ(summary.defines, 3u);
    EXPECT_EQ(summary.frees, 3u);
    EXPECT_EQ(summary.maxPressure, 3u);
    EXPECT_EQ(summary.maxPressurePc, 2u); // the setOp define
    // Trace profiles are watermark envelopes: one point per running-
    // max increase, not one per event.
    ASSERT_EQ(summary.profile.size(), 3u);
    EXPECT_EQ(summary.profile.back().live, 3u);
}

// ---------------- ArchConfig-derived capacity ----------------

TEST(ArchCapacity, OverflowCapacityAndSeverityBoundary)
{
    arch::SparseCoreConfig small;
    small.numStreamRegs = 2;

    // ISA side: register-file overflow over the *config's* capacity
    // is an error (the program targets an architectural register
    // file that size).
    const analysis::VerifyOptions options =
        analysis::VerifyOptions::forArch(small);
    EXPECT_EQ(options.maxLiveStreams, 2u);
    const auto report = analysis::verify(
        isa::assemble(kThreeStreamProgram), options);
    EXPECT_TRUE(report.hasErrors()) << report.format();
    bool saw_overflow = false;
    for (const auto &d : report.diagnostics)
        if (d.rule == Rule::StreamOverflow) {
            saw_overflow = true;
            EXPECT_EQ(d.severity, analysis::Severity::Error);
        }
    EXPECT_TRUE(saw_overflow) << report.format();

    // At exactly the capacity there is no diagnostic: the boundary
    // sits between live == capacity (fine) and live > capacity.
    arch::SparseCoreConfig exact = small;
    exact.numStreamRegs = 3;
    EXPECT_TRUE(analysis::verify(
                    isa::assemble(kThreeStreamProgram),
                    analysis::VerifyOptions::forArch(exact))
                    .clean());

    // Trace side: the SMT virtualizes overflow by spilling (§4.1),
    // so the same shape downgrades to a warning — never an error.
    const auto checker_options =
        analysis::StreamLifetimeChecker::Options::forArch(small);
    EXPECT_EQ(checker_options.maxLiveStreams, 2u);
    const auto tr = record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        const auto b = rec.streamLoad(0x2000, 3, 0, someKeys);
        const auto c = rec.streamLoad(0x3000, 3, 0, someKeys);
        rec.streamFree(a);
        rec.streamFree(b);
        rec.streamFree(c);
    });
    const auto trace_report =
        analysis::verifyTrace(tr, checker_options);
    EXPECT_FALSE(trace_report.hasErrors()) << trace_report.format();
    EXPECT_EQ(trace_report.warningCount(), 1u)
        << trace_report.format();
}

// ---------------- deterministic ordering + emitters ----------------

TEST(Emitters, DiagnosticsSortedByPcSidRuleAndByteStable)
{
    // Two leaked streams (both reported at the final event) plus an
    // earlier double free: ordering must be (pc, sid, rule) no matter
    // what order the analysis discovered them in.
    const auto tr = record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        rec.streamLoad(0x2000, 3, 0, someKeys);
        rec.streamLoad(0x3000, 3, 0, someKeys);
        rec.streamFree(a);
        rec.streamFree(a);
    });
    const auto report = analysis::verifyTrace(tr);
    ASSERT_GE(report.diagnostics.size(), 3u) << report.format();
    for (std::size_t i = 1; i < report.diagnostics.size(); ++i) {
        const auto &p = report.diagnostics[i - 1];
        const auto &d = report.diagnostics[i];
        const bool ordered =
            p.pc != d.pc
                ? p.pc < d.pc
                : (p.sid != d.sid
                       ? p.sid < d.sid
                       : static_cast<unsigned>(p.rule) <=
                             static_cast<unsigned>(d.rule));
        EXPECT_TRUE(ordered)
            << "diagnostics out of (pc, sid, rule) order:\n"
            << report.format();
    }

    // Byte stability: re-running the analysis and re-emitting must
    // reproduce the dump exactly (what the check.sh golden diff and
    // the --json consumers rely on).
    const auto again = analysis::verifyTrace(tr);
    EXPECT_EQ(analysis::jsonValue(report).dump(),
              analysis::jsonValue(again).dump());
    const JsonValue value = analysis::jsonValue(report);
    EXPECT_EQ(value.dump(), value.dump());
}

TEST(Emitters, SummaryJsonCarriesProfileAndBounds)
{
    const auto tr = record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        rec.streamFree(a);
    });
    const arch::SparseCoreConfig config;
    const analysis::ProgramSummary summary =
        analysis::summarizeTrace(tr, config);
    const std::string dumped = analysis::jsonValue(summary).dump();
    EXPECT_NE(dumped.find("\"max_pressure\":1"), std::string::npos)
        << dumped;
    EXPECT_NE(dumped.find("\"profile\":[{\"pc\":0,\"live\":1}]"),
              std::string::npos)
        << dumped;
    EXPECT_NE(dumped.find("\"cost\":{\"valid\":true"),
              std::string::npos)
        << dumped;
}

// ---------------- corrupt / truncated SCBC images ----------------

TEST(ScbcRejection, TruncatedAndCorruptImagesThrow)
{
    const std::string bytes = readBytes(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    ASSERT_GT(bytes.size(), 16u);

    // Truncation: the reader runs out of bytes.
    EXPECT_THROW(trace::BytecodeProgram::deserialize(
                     bytes.substr(0, bytes.size() / 2)),
                 SimError);
    EXPECT_THROW(
        trace::BytecodeProgram::deserialize(bytes.substr(0, 10)),
        SimError);

    // Wrong magic.
    std::string magic = bytes;
    magic[0] = 'X';
    EXPECT_THROW(trace::BytecodeProgram::deserialize(magic),
                 SimError);

    // Trailing garbage after a well-formed image.
    EXPECT_THROW(trace::BytecodeProgram::deserialize(bytes + "xx"),
                 SimError);

    // The committed image itself still round-trips.
    EXPECT_NO_THROW(trace::BytecodeProgram::deserialize(bytes));
}

TEST(ScbcRejection, BytecodeAnalysesFlagBadLifetimes)
{
    // A structurally valid SCBC image whose event order violates the
    // lifetime rules: deserialization accepts it (spans and handles
    // are in range), but the bytecode-side analyses must still flag
    // it and the summary must stay total.
    const auto tr = record([&](trace::TraceRecorder &rec) {
        const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
        rec.streamFree(a);
        rec.streamFree(a);
    });
    const trace::BytecodeProgram bc = trace::compileTrace(tr);
    const std::string wire = bc.serialize();
    const trace::BytecodeProgram reloaded =
        trace::BytecodeProgram::deserialize(wire);

    const auto report = analysis::verifyBytecode(reloaded);
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.diagnostics[0].rule, Rule::DoubleFree);

    const arch::SparseCoreConfig config;
    const analysis::ProgramSummary summary =
        analysis::summarizeBytecode(reloaded, config);
    EXPECT_EQ(summary.defines, 1u);
    EXPECT_EQ(summary.frees, 2u);
    EXPECT_TRUE(summary.cost.valid);
}
