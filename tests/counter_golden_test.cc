/**
 * @file
 * Absolute counter golden: every counter of the timing models after
 * replaying fixed programs on default backends — hits and misses per
 * cache level, memory accesses, gshare lookups and mispredicts, and
 * the engine, SMT, S-Cache, scratchpad, SVPU and nested-translator
 * counters. The pipeline benchmark's arch.* and sim.* metrics read
 * these same fields, and the cycle golden cannot see a counter that
 * moves while the cycles stay put; this suite can.
 *
 * Programs: the committed golden SCBC image (T on the Fig. 1 graph),
 * two value-path captures (spmspm inner and Gustavson on matrix C at
 * stride 16: S_VINTER, S_VMERGE and the SVPU) and a direct engine run
 * that overflows the SMT (spills, virtualization stalls, S-Cache
 * prefetch and writeback).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/pipeline.hh"
#include "backend/cpu_backend.hh"
#include "backend/sparsecore_backend.hh"
#include "tensor/tensor_datasets.hh"
#include "trace/recorder.hh"
#include "trace/replay.hh"
#include "test_util.hh"

using namespace sc;

namespace {

using test::archCounts;
using test::coreCounts;
using test::Counts;

/** Expected counts: the listed nonzero values, every other key 0. */
Counts
expected(const Counts &all_keys, const Counts &nonzero)
{
    Counts out;
    for (const auto &[key, value] : all_keys)
        out[key] = 0;
    for (const auto &[key, value] : nonzero)
        out[key] = value;
    return out;
}

Counts
cpuReplay(const trace::BytecodeProgram &bc)
{
    backend::CpuBackend be;
    trace::replayCompiled(bc, be);
    return coreCounts(be.core());
}

Counts
scReplay(const trace::BytecodeProgram &bc)
{
    backend::SparseCoreBackend be;
    trace::replayCompiled(bc, be);
    Counts out = coreCounts(be.engine().core());
    out.merge(archCounts(be.engine()));
    return out;
}

trace::BytecodeProgram
capture(const api::RunRequest &req)
{
    trace::TraceRecorder recorder;
    api::execute(req, recorder);
    return recorder.takeTrace();
}

trace::BytecodeProgram
spmspmOnC(kernels::SpmspmAlgorithm algorithm)
{
    const tensor::SparseMatrix &c = tensor::loadMatrix("C");
    api::RunOptions options;
    options.stride = 16;
    return capture(api::RunRequest::spmspm(c, c, algorithm, options));
}

/** Twenty live streams on a 16-entry SMT, then two set ops on the
 *  last two (one producing a result longer than its S-Cache slot). */
arch::Engine
pressureRun()
{
    arch::Engine engine;
    std::vector<Key> a(100), b(100);
    for (Key i = 0; i < 100; ++i) {
        a[i] = 2 * i;
        b[i] = 3 * i;
    }
    std::vector<arch::StreamHandle> hs;
    for (unsigned i = 0; i < 20; ++i)
        hs.push_back(engine.streamRead(0x100000 + i * 0x1000, 100,
                                       i % 2, i % 2 ? a : b));
    engine.setOp(streams::SetOpKind::Merge, hs[18], hs[19], b, a,
                 noBound, 167);
    engine.setOpCount(streams::SetOpKind::Subtract, hs[18], hs[19], b,
                      a, noBound);
    engine.finish();
    return engine;
}

} // namespace

TEST(CounterGolden, GoldenProgramOnCpu)
{
    const auto bc = trace::BytecodeProgram::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    const Counts got = cpuReplay(bc);
    EXPECT_EQ(got, expected(got, {{"cycles", 491},
                                  {"l1.hits", 31},
                                  {"l1.misses", 2},
                                  {"l2.misses", 2},
                                  {"l3.misses", 2},
                                  {"mem.accesses", 2},
                                  {"bp.lookups", 28},
                                  {"bp.mispredicts", 12}}));
}

TEST(CounterGolden, GoldenProgramOnSparseCore)
{
    const auto bc = trace::BytecodeProgram::loadFile(
        SPARSECORE_TEST_DATA_DIR "/golden_trace.scbc");
    const Counts got = scReplay(bc);
    EXPECT_EQ(got, expected(got, {{"cycles", 334},
                                  {"l1.hits", 14},
                                  {"l1.misses", 1},
                                  {"l2.hits", 13},
                                  {"l2.misses", 2},
                                  {"l3.misses", 2},
                                  {"mem.accesses", 2},
                                  {"bp.lookups", 7},
                                  {"bp.mispredicts", 6},
                                  {"engine.streamInstructions", 20},
                                  {"engine.sread", 7},
                                  {"engine.sfree", 7},
                                  {"engine.snestinter", 6},
                                  {"engine.setOpElements", 4},
                                  {"engine.op.nestedIntersect", 8},
                                  {"smt.defines", 7},
                                  {"smt.frees", 7},
                                  {"scache.allocs", 7},
                                  {"scache.refillLines", 6},
                                  {"translator.elements", 8},
                                  {"translator.instructions", 30}}));
}

TEST(CounterGolden, SpmspmInnerOnCpu)
{
    const Counts got =
        cpuReplay(spmspmOnC(kernels::SpmspmAlgorithm::Inner));
    EXPECT_EQ(got, expected(got, {{"cycles", 7061271},
                                  {"l1.hits", 690178},
                                  {"l1.misses", 2555},
                                  {"l2.hits", 1484},
                                  {"l2.misses", 1071},
                                  {"l3.misses", 1071},
                                  {"mem.accesses", 1071},
                                  {"bp.lookups", 1305542},
                                  {"bp.mispredicts", 254707}}));
}

TEST(CounterGolden, SpmspmInnerOnSparseCore)
{
    const Counts got =
        scReplay(spmspmOnC(kernels::SpmspmAlgorithm::Inner));
    EXPECT_EQ(got, expected(got, {{"cycles", 267219},
                                  {"l1.hits", 3455},
                                  {"l1.misses", 933},
                                  {"l2.hits", 83705},
                                  {"l2.misses", 1071},
                                  {"l3.misses", 1071},
                                  {"mem.accesses", 1071},
                                  {"engine.streamInstructions", 195200},
                                  {"engine.svread", 65088},
                                  {"engine.sfree", 65088},
                                  {"engine.svinter", 65024},
                                  {"engine.setOpElements", 623550},
                                  {"engine.scratchpadStreamHits", 16},
                                  {"engine.op.intersect", 65024},
                                  {"smt.defines", 65088},
                                  {"smt.frees", 65088},
                                  {"scache.allocs", 65072},
                                  {"scache.refillLines", 83843},
                                  {"scratchpad.hits", 16},
                                  {"scratchpad.misses", 65072},
                                  {"scratchpad.inserts", 65072},
                                  {"scratchpad.evictions", 64364},
                                  {"svpu.loads", 4388},
                                  {"svpu.flops", 2194},
                                  {"svpu.cycles", 18120}}));
}

TEST(CounterGolden, SpmspmGustavsonOnCpu)
{
    const Counts got =
        cpuReplay(spmspmOnC(kernels::SpmspmAlgorithm::Gustavson));
    EXPECT_EQ(got, expected(got, {{"cycles", 96751},
                                  {"l1.hits", 4699},
                                  {"l1.misses", 1883},
                                  {"l2.hits", 719},
                                  {"l2.misses", 1164},
                                  {"l3.misses", 1164},
                                  {"mem.accesses", 1164},
                                  {"bp.lookups", 373},
                                  {"bp.mispredicts", 172}}));
}

TEST(CounterGolden, SpmspmGustavsonOnSparseCore)
{
    const Counts got =
        scReplay(spmspmOnC(kernels::SpmspmAlgorithm::Gustavson));
    EXPECT_EQ(got, expected(got, {{"cycles", 21321},
                                  {"l1.hits", 3986},
                                  {"l1.misses", 402},
                                  {"l2.hits", 142},
                                  {"l2.misses", 669},
                                  {"l3.misses", 669},
                                  {"mem.accesses", 669},
                                  {"bp.lookups", 373},
                                  {"bp.mispredicts", 172},
                                  {"engine.streamInstructions", 1620},
                                  {"engine.svread", 437},
                                  {"engine.sfree", 810},
                                  {"engine.svmerge", 373},
                                  {"engine.setOpElements", 8215},
                                  {"engine.scratchpadStreamHits", 66},
                                  {"engine.op.merge", 373},
                                  {"smt.defines", 810},
                                  {"smt.frees", 810},
                                  {"scache.allocs", 371},
                                  {"scache.producedAllocs", 373},
                                  {"scache.refillLines", 405},
                                  {"scache.writebackLines", 4},
                                  {"scratchpad.hits", 66},
                                  {"scratchpad.misses", 371},
                                  {"scratchpad.inserts", 307},
                                  {"svpu.loads", 4388},
                                  {"svpu.flops", 2194},
                                  {"svpu.cycles", 10885}}));
}

TEST(CounterGolden, SmtOverflowOnEngine)
{
    arch::Engine engine = pressureRun();
    Counts got = coreCounts(engine.core());
    got.merge(archCounts(engine));
    EXPECT_EQ(got, expected(got, {{"cycles", 431},
                                  {"l2.misses", 147},
                                  {"l3.misses", 147},
                                  {"mem.accesses", 147},
                                  {"engine.streamInstructions", 22},
                                  {"engine.sread", 20},
                                  {"engine.setOpElements", 400},
                                  {"engine.smtVirtualizationStalls", 5},
                                  {"engine.op.subtract", 1},
                                  {"engine.op.merge", 1},
                                  {"smt.defines", 21},
                                  {"smt.allocStalls", 5},
                                  {"smt.spills", 5},
                                  {"scache.allocs", 20},
                                  {"scache.producedAllocs", 1},
                                  {"scache.refillLines", 40},
                                  {"scache.prefetchLines", 100},
                                  {"scache.writebackLines", 7},
                                  {"scratchpad.misses", 10},
                                  {"scratchpad.inserts", 10}}));
}

TEST(CounterGolden, StatsSnapshotsKeepTheirNames)
{
    // The pipeline benchmark reads these three snapshots by name.
    const arch::Engine engine = pressureRun();
    const StatSet e = engine.stats();
    const StatSet smt = engine.smt().stats();
    const StatSet sc = engine.scache().stats();
    EXPECT_EQ(e.get("setOpElements"), 400u);
    EXPECT_EQ(e.get("smtVirtualizationStalls"), 5u);
    EXPECT_EQ(e.get("streamInstructions"), 22u);
    EXPECT_EQ(e.get("sread"), 20u);
    EXPECT_EQ(e.get("op.merge"), 1u);
    EXPECT_EQ(e.get("op.subtract"), 1u);
    EXPECT_EQ(e.get("op.intersect"), 0u);
    EXPECT_EQ(smt.get("spills"), 5u);
    EXPECT_EQ(smt.get("allocStalls"), 5u);
    EXPECT_EQ(smt.get("defines"), 21u);
    EXPECT_EQ(sc.get("refillLines"), 40u);
    EXPECT_EQ(sc.get("prefetchLines"), 100u);
    EXPECT_EQ(sc.get("writebackLines"), 7u);
    EXPECT_EQ(sc.get("producedAllocs"), 1u);
}
