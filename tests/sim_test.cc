/**
 * @file
 * Tests for the timing substrate: cache tag model, memory hierarchy,
 * branch predictors, and the core cost model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core_model.hh"
#include "sim/mem_hierarchy.hh"

using namespace sc;
using namespace sc::sim;

TEST(Cache, HitAfterMiss)
{
    Cache c({"test", 1024, 2, 64});
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004)); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, 8 sets, 64B lines: three lines mapping to one set.
    Cache c({"test", 1024, 2, 64});
    const Addr set_stride = 8 * 64;
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    c.access(2 * set_stride);          // evicts line 0 (LRU)
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(1 * set_stride));
    EXPECT_TRUE(c.contains(2 * set_stride));
}

TEST(Cache, LruTouchOnHit)
{
    Cache c({"test", 1024, 2, 64});
    const Addr set_stride = 8 * 64;
    c.access(0 * set_stride);
    c.access(1 * set_stride);
    c.access(0 * set_stride);          // touch 0: now 1 is LRU
    c.access(2 * set_stride);          // evicts 1
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(1 * set_stride));
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c({"test", 1024, 2, 64});
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({"bad", 1000, 7, 64}), SimError);
    EXPECT_THROW(Cache({"bad", 1024, 0, 64}), SimError);
    EXPECT_THROW(Cache({"bad", 1024, 2, 60}), SimError);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 12 MB 16-way with 64 B lines has 12288 sets (Table 2's L3).
    Cache c({"l3", 12 * 1024 * 1024, 16, 64});
    EXPECT_EQ(c.numSets(), 12288u);
    EXPECT_FALSE(c.access(0x100000));
    EXPECT_TRUE(c.access(0x100000));
}

namespace {

/** The cache as it was first written: one {tag, valid, lastUse}
 *  struct per way, victim = last invalid way, else the least recently
 *  used one. Cache must give the same hit/miss sequence. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : ways_(p.ways), lineBytes_(p.lineBytes),
          sets_(p.sizeBytes / p.lineBytes / p.ways),
          data_(sets_ * ways_)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr line = addr / lineBytes_;
        Way *base = &data_[(line % sets_) * ways_];
        ++clock_;
        Way *victim = base;
        for (std::uint64_t w = 0; w < ways_; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                way.lastUse = clock_;
                return true;
            }
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.lastUse < victim->lastUse)
                victim = &way;
        }
        *victim = {line, true, clock_};
        return false;
    }

    void
    flush()
    {
        for (Way &way : data_)
            way.valid = false;
    }

  private:
    struct Way
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t ways_, lineBytes_, sets_;
    std::vector<Way> data_;
    std::uint64_t clock_ = 0;
};

} // namespace

TEST(Cache, MatchesReferenceLruOnRandomStreams)
{
    const std::vector<CacheParams> geometries = {
        {"pow2", 32 * 1024, 8, 64},    // 64 sets
        {"odd_sets", 12 * 64 * 4, 4, 64}, // 12 sets
        {"direct", 16 * 64, 1, 64},    // 1-way
        {"wide", 3 * 16 * 32, 16, 32}, // 16-way, 3 sets
    };
    for (const CacheParams &p : geometries) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Cache cache(p);
            ReferenceCache ref(p);
            Rng rng(seed);
            // A footprint of ~3x capacity: hits, conflict and
            // capacity misses all occur; a hot quarter adds reuse.
            const std::uint64_t span = 3 * p.sizeBytes;
            std::uint64_t hits = 0, misses = 0;
            for (int i = 0; i < 20000; ++i) {
                if (i % 5000 == 4999) {
                    cache.flush();
                    ref.flush();
                }
                const Addr addr = rng.chance(0.25)
                                      ? rng.below(p.sizeBytes / 4)
                                      : rng.below(span);
                const bool hit = ref.access(addr);
                ASSERT_EQ(cache.access(addr), hit)
                    << p.name << " seed " << seed << " access " << i;
                ++(hit ? hits : misses);
            }
            EXPECT_EQ(cache.hits(), hits) << p.name;
            EXPECT_EQ(cache.misses(), misses) << p.name;
            EXPECT_GT(hits, 0u) << p.name;
            EXPECT_GT(misses, 0u) << p.name;
        }
    }
}

TEST(Cache, ResetIsCold)
{
    Cache c({"test", 1024, 2, 64});
    c.access(0x40);
    c.access(0x40);
    c.reset();
    EXPECT_EQ(c.hits() + c.misses(), 0u);
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.access(0x40));
}

TEST(MemHierarchy, LatencyComposition)
{
    MemParams p;
    MemHierarchy m(p);
    MemLevel level;
    // Cold: miss everywhere.
    const Cycles cold = m.l1Access(0x5000, level);
    EXPECT_EQ(level, MemLevel::Memory);
    EXPECT_EQ(cold, p.l1Latency + p.l2Latency + p.l3Latency +
                        p.memLatency);
    // Warm: L1 hit.
    const Cycles warm = m.l1Access(0x5000, level);
    EXPECT_EQ(level, MemLevel::L1);
    EXPECT_EQ(warm, p.l1Latency);
}

TEST(MemHierarchy, L2PathBypassesL1)
{
    MemParams p;
    MemHierarchy m(p);
    m.l2Access(0x9000);
    // The line went to L2/L3 but not L1.
    EXPECT_FALSE(m.l1().contains(0x9000));
    EXPECT_TRUE(m.l2().contains(0x9000));
    MemLevel level;
    m.l2Access(0x9000, level);
    EXPECT_EQ(level, MemLevel::L2);
}

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    // Each of the 13 histories seen until the 12-bit history
    // saturates at all ones indexes a cold, weakly not-taken counter:
    // one miss each, then every prediction is right.
    GsharePredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.predict(0x40, true);
    EXPECT_EQ(bp.lookups(), 100u);
    EXPECT_EQ(bp.mispredicts(), 13u);
}

TEST(BranchPredictor, GshareLearnsAlternation)
{
    GsharePredictor bp;
    for (int i = 0; i < 2000; ++i)
        bp.predict(0x40, i % 2 == 0);
    // Alternation is a trivial history pattern for gshare.
    EXPECT_LT(bp.mispredictRate(), 0.1);
}

TEST(BranchPredictor, RandomIsHardForTwoBit)
{
    // No history pattern or counter learns coin flips.
    GsharePredictor bp;
    Rng rng(42);
    for (int i = 0; i < 5000; ++i)
        bp.predict(0x40, rng.chance(0.5));
    EXPECT_GT(bp.mispredictRate(), 0.3);
}

TEST(CoreModel, OpsChargeIssueWidth)
{
    CoreModel core;
    core.executeOps(8); // width 4 -> 2 cycles
    EXPECT_EQ(core.cycles(), 2u);
    EXPECT_EQ(core.breakdown()[CycleClass::OtherCompute], 2u);
}

TEST(CoreModel, MispredictChargesPenalty)
{
    CoreParams p;
    CoreModel core(p);
    Rng rng(7);
    Cycles before = core.breakdown()[CycleClass::Mispredict];
    for (int i = 0; i < 1000; ++i)
        core.executeBranch(0x44, rng.chance(0.5));
    const Cycles penalty =
        core.breakdown()[CycleClass::Mispredict] - before;
    // Random branches: expect a large, penalty-quantized charge.
    EXPECT_GT(penalty, 100 * p.mispredictPenalty);
    EXPECT_EQ(penalty % p.mispredictPenalty, 0u);
}

TEST(CoreModel, SequentialLoadsMostlyHit)
{
    CoreModel core;
    for (Addr a = 0; a < 64 * 1024; a += 4)
        core.load(0x100000 + a);
    // 16 keys per line -> 1/16 of loads miss L1; the rest add no
    // stall. Confirm cache-stall cycles are far below 1 per load.
    const double per_load =
        static_cast<double>(core.breakdown()[CycleClass::Cache]) /
        (64.0 * 1024 / 4);
    EXPECT_LT(per_load, 10.0);
    EXPECT_GT(core.mem().l1().hits(), core.mem().l1().misses());
}

TEST(CoreModel, ResetClearsState)
{
    CoreModel core;
    core.executeOps(100);
    core.load(0x1234);
    core.executeBranch(0x40, true);
    core.reset();
    EXPECT_EQ(core.cycles(), 0u);
    EXPECT_EQ(core.mem().l1().hits() + core.mem().l1().misses(), 0u);
    EXPECT_EQ(core.mem().memAccesses(), 0u);
    EXPECT_EQ(core.predictor().lookups(), 0u);
    // Cold: the line is gone from every level, so the load misses to
    // memory again, and the predictor has forgotten the branch.
    core.load(0x1234);
    EXPECT_EQ(core.mem().memAccesses(), 1u);
    CoreModel fresh;
    fresh.load(0x1234);
    EXPECT_EQ(core.breakdown().cycles, fresh.breakdown().cycles);
    EXPECT_EQ(core.executeBranch(0x40, true),
              fresh.executeBranch(0x40, true));
}

TEST(CycleBreakdown, FractionsSumToOne)
{
    CycleBreakdown bd;
    bd[CycleClass::Cache] = 10;
    bd[CycleClass::Mispredict] = 20;
    bd[CycleClass::OtherCompute] = 30;
    bd[CycleClass::Intersection] = 40;
    EXPECT_EQ(bd.total(), 100u);
    double sum = 0;
    for (unsigned i = 0;
         i < static_cast<unsigned>(CycleClass::NumClasses); ++i)
        sum += bd.fraction(static_cast<CycleClass>(i));
    EXPECT_NEAR(sum, 1.0, 1e-9);
}
