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

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/summary.hh"
#include "analysis/trace_check.hh"
#include "analysis/verifier.hh"
#include "api/parallel.hh"
#include "arch/config.hh"
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
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "trace/wire.hh"

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

/** The bracket property for one program: at every config, the
 *  static bounds must contain the replayed cycles, and the program's
 *  SCBC image, reloaded, must summarize identically. */
void
expectBrackets(const trace::BytecodeProgram &bc, const std::string &label)
{
    const trace::BytecodeProgram image =
        trace::BytecodeProgram::deserialize(bc.serialize());
    for (const arch::SparseCoreConfig &config : sweepConfigs()) {
        const analysis::ProgramSummary summary =
            analysis::summarizeBytecode(bc, config);
        EXPECT_EQ(analysis::jsonValue(summary).dump(),
                  analysis::jsonValue(
                      analysis::summarizeBytecode(image, config))
                      .dump())
            << label << ": the reloaded image summarizes differently";
        ASSERT_TRUE(summary.cost.valid) << label;
        EXPECT_LE(summary.cost.lower, summary.cost.upper) << label;

        backend::SparseCoreBackend be(config);
        const Cycles cycles =
            trace::replayCompiled(bc, be, /*verify=*/false).cycles;
        EXPECT_TRUE(summary.cost.contains(cycles))
            << label << ": [" << summary.cost.lower << ", "
            << summary.cost.upper << "] misses " << cycles
            << " cycles (sus=" << config.numSus
            << " window=" << config.suWindow
            << " bw=" << config.aggregateBandwidth
            << " nested=" << config.nestedIntersection << ")";
    }
}

trace::BytecodeProgram
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
    const auto bc = trace::BytecodeProgram::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    expectBrackets(bc, "golden program");
}

TEST(CostBounds, ChunkedParallelTracesBracketAndVerifyClean)
{
    // The mineParallel* split: chunk m of M covers roots
    // { (m + i*M) * stride }. Every chunk's trace must be
    // verifier-clean and satisfy the bracket property; the chunk
    // functional results must sum to the parallel miner's.
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
        const trace::BytecodeProgram bc = rec.takeTrace();

        const auto report = analysis::verifyBytecode(bc);
        EXPECT_TRUE(report.clean())
            << "chunk " << chunk << ":\n"
            << report.format();

        expectBrackets(bc, "chunk " + std::to_string(chunk));
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
        analysis::summarizeBytecode(tr, config);
    EXPECT_TRUE(summary.pressureExact);
    EXPECT_EQ(summary.defines, 3u);
    EXPECT_EQ(summary.frees, 3u);
    EXPECT_EQ(summary.maxPressure, 3u);
    EXPECT_EQ(summary.maxPressurePc, 2u); // the setOp define
    // Captured-program profiles are watermark envelopes: one point
    // per running-max increase, not one per event.
    ASSERT_EQ(summary.profile.size(), 3u);
    EXPECT_EQ(summary.profile.back().live, 3u);
    // The checker sees the same peak: at capacity 2 it flags the
    // setOp define, the event the watermark names.
    analysis::StreamLifetimeChecker::Options tight;
    tight.maxLiveStreams = 2;
    const auto report = analysis::verifyBytecode(tr, tight);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.format();
    EXPECT_EQ(report.diagnostics[0].rule, Rule::StreamOverflow);
    EXPECT_EQ(report.diagnostics[0].pc, summary.maxPressurePc);
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

    // Captured-program side: the SMT virtualizes overflow by
    // spilling (§4.1), so the same shape downgrades to a warning —
    // never an error.
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
        analysis::verifyBytecode(tr, checker_options);
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
    const auto report = analysis::verifyBytecode(tr);
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
    const auto again = analysis::verifyBytecode(tr);
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
        analysis::summarizeBytecode(tr, config);
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

namespace {

using trace::wire::put;

/** SCBC image header: magic, version, handle count, instruction and
 *  event counts (everything before the arena count). */
std::string
scbcHeader(std::uint32_t handles, std::uint64_t instructions,
           std::uint64_t events)
{
    std::string out = "SCBC";
    put<std::uint32_t>(out, trace::bytecodeFormatVersion);
    put<std::uint32_t>(out, handles);
    put<std::uint64_t>(out, instructions);
    put<std::uint64_t>(out, events);
    return out;
}

/** The empty arena and nested-entry table, then the code count. */
void
putEmptyTables(std::string &out, std::uint64_t code_words)
{
    put<std::uint64_t>(out, 0);
    put<std::uint64_t>(out, 0);
    put<std::uint64_t>(out, code_words);
}

trace::Word
opWord(trace::Op op)
{
    return static_cast<trace::Word>(op);
}

/**
 * Hand-crafted images aimed at the loader's checks: counts larger
 * than the image, operands past the end of the code, a span whose end
 * wraps past 2^64, a handle count no code backs, and one well-formed
 * but huge fused run. They double
 * as the scverify_malformed_inputs ctest's inputs, so each is pinned
 * byte for byte against its committed file under
 * tests/data/scverify_malformed/ (SPARSECORE_REGEN_GOLDEN=1 rewrites
 * the files).
 */
std::string
craftedImage(const std::string &name)
{
    std::string out;
    if (name == "arena_count_2e62.scbc" ||
        name == "arena_count_2e29.scbc") {
        // A 36-byte image whose header claims a huge arena.
        out = scbcHeader(0, 0, 0);
        put<std::uint64_t>(out, name == "arena_count_2e62.scbc"
                                    ? std::uint64_t{1} << 62
                                    : std::uint64_t{1} << 29);
    } else if (name == "handle_count_2e32.scbc") {
        // A 52-byte image claiming 2^32-1 handles for empty code: a
        // replay would size a 32 GiB handle map from it.
        out = scbcHeader(0xffffffffu, 0, 0);
        putEmptyTables(out, 0);
    } else if (name == "setop_operands_truncated.scbc") {
        // One SetOp header word and none of its operands.
        out = scbcHeader(0, 1, 1);
        putEmptyTables(out, 1);
        put<trace::Word>(out, opWord(trace::Op::SetOp));
    } else if (name == "nested_span_wraps.scbc") {
        // A nested entry at offset 2^64-1: off + len wraps to 0.
        out = scbcHeader(1, 3, 3);
        put<std::uint64_t>(out, 1); // arena: one key
        put<Key>(out, 7);
        put<std::uint64_t>(out, 1); // one nested entry
        put<std::uint64_t>(out, 0);                  // infoAddr
        put<std::uint64_t>(out, 0);                  // keyAddr
        put<std::uint64_t>(out, ~std::uint64_t{0});  // span offset
        put<std::uint32_t>(out, 1);                  // span length
        put<std::uint32_t>(out, noBound);            // bound
        put<std::uint64_t>(out, 0);                  // count
        const trace::Word code[] = {
            // streamLoad -> s0, addr 0x1000, len 1, keys [0, +1)
            opWord(trace::Op::StreamLoad),
            static_cast<trace::Word>(trace::zigzagEncode(0x1000)), 1,
            0, 1,
            // nestedGroup over s0, keys [0, +1), entries [0, +1)
            opWord(trace::Op::NestedGroup), 0, 0, 1, 0, 1,
            // streamFree s0
            opWord(trace::Op::StreamFree), 0};
        put<std::uint64_t>(out, std::size(code));
        for (const trace::Word w : code)
            put<trace::Word>(out, w);
    } else if (name == "ok_scalar_run_2e32.scbc") {
        // Well-formed: one run of 2^32-1 scalarOps(1) events.
        out = scbcHeader(0, 1, 0xffffffffull);
        putEmptyTables(out, 3);
        put<trace::Word>(out, opWord(trace::Op::ScalarOpsRun));
        put<trace::Word>(out, 0xffffffffu);
        put<trace::Word>(out, 1);
    }
    EXPECT_FALSE(out.empty()) << "no crafted image named " << name;

    const std::string path =
        std::string(SPARSECORE_TEST_DATA_DIR "/scverify_malformed/") +
        name;
    if (std::getenv("SPARSECORE_REGEN_GOLDEN"))
        std::ofstream(path, std::ios::binary) << out;
    else
        EXPECT_EQ(readBytes(path), out)
            << path << " differs from the image this test builds";
    return out;
}

} // namespace

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

    // A count larger than the image (checked before allocating),
    // operands past the end of the code (a bounds-checked validation
    // walk), a span whose end wraps past 2^64 (an overflow-safe
    // check) and a handle count past the handles the code uses.
    for (const char *name :
         {"arena_count_2e62.scbc", "arena_count_2e29.scbc",
          "setop_operands_truncated.scbc", "nested_span_wraps.scbc",
          "handle_count_2e32.scbc"})
        EXPECT_THROW(
            trace::BytecodeProgram::deserialize(craftedImage(name)),
            SimError)
            << name;

    // The committed image itself still round-trips.
    EXPECT_NO_THROW(trace::BytecodeProgram::deserialize(bytes));
}

TEST(ScbcRejection, LongScalarRunVerifiesWithoutExpanding)
{
    // A 64-byte image whose one instruction is a run of 2^32-1
    // scalar ops: the analyses walk the run as one instruction, never
    // as 2^32 events.
    const trace::BytecodeProgram bc = trace::BytecodeProgram::deserialize(
        craftedImage("ok_scalar_run_2e32.scbc"));
    EXPECT_EQ(bc.numEvents(), 0xffffffffull);
    EXPECT_TRUE(analysis::verifyBytecode(bc).clean());
    const analysis::ProgramSummary summary =
        analysis::summarizeBytecode(bc, arch::SparseCoreConfig{});
    EXPECT_EQ(summary.points, 0xffffffffull);
    EXPECT_EQ(summary.defines, 0u);
}

TEST(ScbcRejection, BytecodeAnalysesFlagBadLifetimes)
{
    // A structurally valid SCBC image whose event order violates the
    // lifetime rules: deserialization accepts it (spans and handles
    // are in range), but the bytecode-side analyses must still flag
    // it and the summary must stay total.
    const trace::BytecodeProgram bc =
        record([&](trace::TraceRecorder &rec) {
            const auto a = rec.streamLoad(0x1000, 3, 0, someKeys);
            rec.streamFree(a);
            rec.streamFree(a);
        });
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
