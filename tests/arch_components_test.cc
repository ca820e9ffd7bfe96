/**
 * @file
 * Unit tests for the SparseCore architectural components: SMT (§4.1),
 * S-Cache (§4.3), scratchpad (§4.2), Stream Unit parallel comparison
 * (§4.2/Fig. 6), SVPU (§4.5) and the nested-intersection translator
 * (§4.6).
 */

#include <gtest/gtest.h>

#include "arch/nest_translator.hh"
#include "arch/scache.hh"
#include "arch/scratchpad.hh"
#include "arch/smt.hh"
#include "arch/stream_unit.hh"
#include "arch/svpu.hh"
#include "common/logging.hh"

using namespace sc;
using namespace sc::arch;

// ---------------- SMT ----------------

TEST(Smt, DefineLookupFree)
{
    Smt smt(4);
    auto e = smt.define(100);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(smt.lookup(100), e);
    EXPECT_EQ(smt.activeCount(), 1u);
    smt.decodeFree(100);
    // VD cleared, VA still set until retire (§4.1).
    EXPECT_FALSE(smt.lookup(100).has_value());
    EXPECT_EQ(smt.activeCount(), 1u);
    smt.retireFree(*e);
    EXPECT_EQ(smt.activeCount(), 0u);
}

TEST(Smt, FullTableStalls)
{
    Smt smt(2);
    EXPECT_TRUE(smt.define(1).has_value());
    EXPECT_TRUE(smt.define(2).has_value());
    EXPECT_FALSE(smt.define(3).has_value()); // stall
    EXPECT_EQ(smt.counters().allocStalls, 1u);
}

TEST(Smt, RedefineKeepsEntry)
{
    Smt smt(2);
    auto e1 = smt.define(7);
    auto e2 = smt.define(7);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(smt.activeCount(), 1u);
    EXPECT_EQ(smt.counters().redefines, 1u);
}

TEST(Smt, RegisterNotReusableUntilRetire)
{
    Smt smt(1);
    auto e = smt.define(1);
    smt.decodeFree(1);
    // VA still set: a new stream cannot take the register yet.
    EXPECT_FALSE(smt.define(2).has_value());
    smt.retireFree(*e);
    EXPECT_TRUE(smt.define(2).has_value());
}

TEST(Smt, FreeOfUndefinedPanics)
{
    Smt smt(2);
    EXPECT_THROW(smt.decodeFree(9), SimError);
}

TEST(Smt, SpillReleasesOneEntry)
{
    Smt smt(2);
    smt.define(1);
    smt.define(2);
    smt.spillOne();
    EXPECT_EQ(smt.activeCount(), 1u);
    EXPECT_TRUE(smt.define(3).has_value());
}

TEST(Smt, DependencyLinks)
{
    Smt smt(4);
    auto p0 = smt.define(1);
    auto p1 = smt.define(2);
    auto out = smt.define(3);
    smt.entry(*out).pred0 = *p0;
    smt.entry(*out).pred1 = *p1;
    EXPECT_EQ(smt.entry(*out).pred0, *p0);
    EXPECT_EQ(smt.entry(*out).pred1, *p1);
}

// ---------------- S-Cache ----------------

TEST(SCache, GeometryMatchesPaper)
{
    // 16 slots x 64 keys x 4 B = 4 KB (§4.3).
    SCache scache(16, 64, 64);
    EXPECT_EQ(scache.totalSizeBytes(), 4096u);
    EXPECT_EQ(scache.subSlotKeys(), 32u);
}

TEST(SCache, AllocateFetchesFirstSubSlot)
{
    SCache scache(16, 64, 64);
    sim::MemHierarchy mem;
    // 32 keys = 128 B = 2 lines; both fetched via the L2 path.
    const Cycles latency = scache.allocate(0, 0x10000, 100, mem);
    EXPECT_GT(latency, 0u);
    EXPECT_EQ(scache.counters().refillLines, 2u);
    EXPECT_TRUE(scache.slot(0).startBit);
    EXPECT_FALSE(mem.l1().contains(0x10000)); // bypasses L1
    EXPECT_TRUE(mem.l2().contains(0x10000));
}

TEST(SCache, ShortStreamFetchesFewerLines)
{
    SCache scache(16, 64, 64);
    sim::MemHierarchy mem;
    scache.allocate(1, 0x20000, 8, mem); // 8 keys = 32 B = 1 line
    EXPECT_EQ(scache.counters().refillLines, 1u);
}

TEST(SCache, ProducedStreamOverflowClearsStartBit)
{
    SCache scache(16, 64, 64);
    sim::MemHierarchy mem;
    scache.allocateProduced(2, 0);
    const auto lines = scache.writebackProduced(2, 200, mem);
    EXPECT_GT(lines, 0u);
    EXPECT_FALSE(scache.slot(2).startBit);
    EXPECT_EQ(scache.slot(2).residentFrom, 200u - 64u);

    // A short produced stream keeps its start bit.
    scache.allocateProduced(3, 0);
    EXPECT_EQ(scache.writebackProduced(3, 40, mem), 0u);
    EXPECT_TRUE(scache.slot(3).startBit);
}

TEST(SCache, ReleaseClearsSlot)
{
    SCache scache(4, 64, 64);
    sim::MemHierarchy mem;
    scache.allocate(0, 0x30000, 64, mem);
    scache.release(0);
    EXPECT_FALSE(scache.slot(0).valid);
}

// ---------------- Scratchpad ----------------

TEST(Scratchpad, HitAfterInsert)
{
    Scratchpad sp(16 * 1024);
    EXPECT_FALSE(sp.lookup(0x1000));
    sp.insert(0x1000, 100);
    EXPECT_TRUE(sp.lookup(0x1000));
    EXPECT_EQ(sp.usedKeys(), 100u);
}

TEST(Scratchpad, LruEviction)
{
    Scratchpad sp(16 * 1024); // 4096 keys
    sp.insert(0x1000, 2000);
    sp.insert(0x2000, 2000);
    sp.insert(0x3000, 2000); // evicts 0x1000
    EXPECT_FALSE(sp.lookup(0x1000));
    EXPECT_TRUE(sp.lookup(0x2000));
    EXPECT_TRUE(sp.lookup(0x3000));
    EXPECT_LE(sp.usedKeys(), sp.capacityKeys());
}

TEST(Scratchpad, OversizedStreamNotInserted)
{
    Scratchpad sp(1024); // 256 keys
    sp.insert(0x1000, 1000);
    EXPECT_FALSE(sp.lookup(0x1000));
}

TEST(Scratchpad, LookupRefreshesLru)
{
    Scratchpad sp(16 * 1024);
    sp.insert(0x1000, 2000);
    sp.insert(0x2000, 2000);
    EXPECT_TRUE(sp.lookup(0x1000)); // refresh
    sp.insert(0x3000, 2000);        // evicts 0x2000 instead
    EXPECT_TRUE(sp.lookup(0x1000));
    EXPECT_FALSE(sp.lookup(0x2000));
}

// ---------------- Stream Unit (Fig. 6) ----------------

TEST(StreamUnit, FigureSixExample)
{
    // Fig. 6: A = [0, 2, 3, 9], B = [3, 4, 7, 8] finishes the match
    // of key 3 within three cycles of parallel comparison.
    const std::vector<Key> a = {0, 2, 3, 9};
    const std::vector<Key> b = {3, 4, 7, 8};
    const Cycles cycles = streams::suCycles(
        a, b, streams::SetOpKind::Intersect, noBound, 16);
    EXPECT_LE(cycles, 3u);
    EXPECT_GE(cycles, 2u);
}

TEST(StreamUnit, WindowSkipsAheadVsScalar)
{
    // Interleaved-but-disjoint streams of 160 elements: the scalar
    // walk needs ~320 steps; a 16-wide window needs far fewer when
    // runs are long.
    std::vector<Key> a, b;
    for (Key i = 0; i < 160; ++i) {
        a.push_back(i);               // 0..159
        b.push_back(1000 + i);        // no overlap: one big skip
    }
    const Cycles wide = streams::suCycles(
        a, b, streams::SetOpKind::Intersect, noBound, 16);
    const Cycles scalar = streams::suCycles(
        a, b, streams::SetOpKind::Intersect, noBound, 1);
    EXPECT_LT(wide * 4, scalar);
}

TEST(StreamUnit, OccupancyTracksBusyCycles)
{
    StreamUnit su(0, 16, 4);
    su.occupy(10, 30);
    su.occupy(30, 45);
    EXPECT_EQ(su.freeAt(), 45u);
    EXPECT_EQ(su.busyCycles(), 35u);
    EXPECT_EQ(su.opsExecuted(), 2u);
    EXPECT_THROW(su.occupy(40, 50), SimError); // overlapping
}

TEST(StreamUnit, OpCyclesIncludesPipelineLatency)
{
    StreamUnit su(0, 16, 4);
    const std::vector<Key> a = {1};
    const std::vector<Key> b = {1};
    EXPECT_EQ(su.opCycles(a, b, streams::SetOpKind::Intersect), 5u);
}

// ---------------- SVPU ----------------

TEST(Svpu, OverlapsLoadsUpToMlp)
{
    sim::MemHierarchy mem;
    Svpu svpu(8);
    std::vector<Addr> a(64), b(64);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = 0x100000 + i * 8;
        b[i] = 0x200000 + i * 8;
    }
    const SvpuCost cost = svpu.process(a, b, mem);
    EXPECT_EQ(cost.loads, 128u);
    EXPECT_EQ(cost.flops, 64u);
    // With MLP 8, the drain time is far below the serial latency sum.
    Svpu serial(1);
    sim::MemHierarchy mem2;
    const SvpuCost serial_cost = serial.process(a, b, mem2);
    EXPECT_LT(cost.cycles, serial_cost.cycles);
}

TEST(Svpu, MismatchedListsPanic)
{
    sim::MemHierarchy mem;
    Svpu svpu(8);
    EXPECT_THROW(svpu.process({0x10}, {}, mem), SimError);
}

// ---------------- Nested Intersection Translator ----------------

TEST(NestTranslator, ReadyTimesMonotonic)
{
    NestTranslator tr(NestTranslatorParams{16, 1, 8});
    sim::MemHierarchy mem;
    std::vector<Addr> info(40);
    for (std::size_t i = 0; i < info.size(); ++i)
        info[i] = 0x500000 + i * 8;
    std::vector<Cycles> ready;
    tr.translate(100, info, mem, ready);
    ASSERT_EQ(ready.size(), info.size());
    for (std::size_t i = 1; i < ready.size(); ++i)
        EXPECT_GE(ready[i], ready[i - 1]);
    EXPECT_GE(ready.front(), 100u);
}

TEST(NestTranslator, BufferLimitsInFlight)
{
    // A tiny 2-entry buffer forces later elements to wait for
    // earlier drains, spreading ready times out.
    sim::MemHierarchy mem_small, mem_big;
    NestTranslator small(NestTranslatorParams{2, 1, 8});
    NestTranslator big(NestTranslatorParams{64, 1, 8});
    std::vector<Addr> info(32);
    for (std::size_t i = 0; i < info.size(); ++i)
        info[i] = 0x600000 + i * 8;
    std::vector<Cycles> r_small, r_big;
    small.translate(0, info, mem_small, r_small);
    big.translate(0, info, mem_big, r_big);
    EXPECT_GE(r_small.back(), r_big.back());
}
