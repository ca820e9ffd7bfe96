/**
 * @file
 * Tests for the common infrastructure: logging, stats, histograms,
 * RNG determinism, and table formatting.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace sc;

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("broken %d", 7), SimError);
    EXPECT_THROW(fatal("bad input %s", "x"), SimError);
    try {
        panic("value %d", 42);
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("value 42"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("panic"),
                  std::string::npos);
    }
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("a=%d b=%s", 1, "two"), "a=1 b=two");
    EXPECT_EQ(strprintf("%x", 255u), "ff");
}

TEST(Rng, DeterministicSequences)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(rng.below(10), 10u);
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Stats, CountersAndDump)
{
    StatSet stats("unit");
    ++stats.counter("a");
    stats.counter("b") += 41;
    ++stats.counter("b");
    EXPECT_EQ(stats.get("a"), 1u);
    EXPECT_EQ(stats.get("b"), 42u);
    EXPECT_EQ(stats.get("missing"), 0u);
    const std::string text = stats.dump();
    EXPECT_NE(text.find("unit.b = 42"), std::string::npos);
    stats.reset();
    EXPECT_EQ(stats.get("b"), 0u);
}

TEST(Histogram, SamplingAndPercentiles)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.samples(), 100u);
    EXPECT_NEAR(h.mean(), 49.5, 0.01);
    EXPECT_NEAR(h.percentile(0.5), 50u, 1);
    EXPECT_EQ(h.maxValue(), 99u);
    EXPECT_NEAR(h.cdfAt(49), 0.5, 0.01);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(1, 10);
    h.sample(1000); // lands in the overflow bucket
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.maxValue(), 1000u);
    EXPECT_DOUBLE_EQ(h.cdfAt(5), 0.0);
}

TEST(Table, AlignmentAndCsv)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    const std::string text = t.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    EXPECT_EQ(t.csv(), "name,value\nx,1\nlonger,2\n");
}

TEST(Table, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"1"});
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_NE(t.csv().find("1,,"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::speedup(13.5, 1), "13.5x");
}

TEST(Geomean, KnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    EXPECT_THROW(geomean({}), SimError);
    EXPECT_THROW(geomean({1.0, -1.0}), SimError);
}
