/**
 * @file
 * Unit tests for the common substrate: types, RNG, and the statistics
 * package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace
{

using namespace zmt;

TEST(Types, PageArithmetic)
{
    EXPECT_EQ(PageBytes, 8192u);
    EXPECT_EQ(pageNum(0), 0u);
    EXPECT_EQ(pageNum(8191), 0u);
    EXPECT_EQ(pageNum(8192), 1u);
    EXPECT_EQ(pageBase(8195), 8192u);
    EXPECT_EQ(pageBase(0x12345678) & PageMask, 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(double(hits) / trials, 0.25, 0.02);
}

TEST(Stats, ScalarBasics)
{
    stats::StatGroup root("root");
    stats::Scalar counter(&root, "counter", "a counter");
    EXPECT_EQ(counter.value(), 0.0);
    ++counter;
    counter += 2.5;
    EXPECT_DOUBLE_EQ(counter.value(), 3.5);
    counter = 7;
    EXPECT_DOUBLE_EQ(counter.value(), 7.0);
    counter.reset();
    EXPECT_EQ(counter.value(), 0.0);
}

TEST(Stats, AverageMean)
{
    stats::StatGroup root("root");
    stats::Average avg(&root, "avg", "");
    EXPECT_EQ(avg.mean(), 0.0);
    avg.sample(2);
    avg.sample(4);
    avg.sample(6);
    EXPECT_DOUBLE_EQ(avg.mean(), 4.0);
    EXPECT_EQ(avg.samples(), 3u);
}

TEST(Stats, DistributionBuckets)
{
    stats::StatGroup root("root");
    stats::Distribution dist(&root, "dist", "", 0, 100, 10);
    dist.sample(-5);   // underflow
    dist.sample(0);    // bucket 0
    dist.sample(9.5);  // bucket 0
    dist.sample(55);   // bucket 5
    dist.sample(150);  // overflow
    EXPECT_EQ(dist.samples(), 5u);
    EXPECT_EQ(dist.underflows(), 1u);
    EXPECT_EQ(dist.overflows(), 1u);
    EXPECT_EQ(dist.bucketCount(0), 2u);
    EXPECT_EQ(dist.bucketCount(5), 1u);
    EXPECT_DOUBLE_EQ(dist.minSample(), -5.0);
    EXPECT_DOUBLE_EQ(dist.maxSample(), 150.0);
}

// Before the first sample there is no extremum: min/max must read as
// NaN, not a 0.0 that is indistinguishable from a real sampled zero
// (a distribution whose smallest sample is 17 used to report min=0).
TEST(Stats, DistributionMinMaxNaNBeforeFirstSample)
{
    stats::StatGroup root("root");
    stats::Distribution dist(&root, "dist", "", 0, 100, 10);
    EXPECT_TRUE(std::isnan(dist.minSample()));
    EXPECT_TRUE(std::isnan(dist.maxSample()));

    dist.sample(17);
    EXPECT_DOUBLE_EQ(dist.minSample(), 17.0);
    EXPECT_DOUBLE_EQ(dist.maxSample(), 17.0);

    dist.reset();
    EXPECT_TRUE(std::isnan(dist.minSample()));
    EXPECT_TRUE(std::isnan(dist.maxSample()));
}

TEST(Stats, DumpJsonIsParseableAndNullsNonFinite)
{
    stats::StatGroup root("sim");
    stats::Scalar a(&root, "a", "");
    a = 3;
    stats::Distribution dist(&root, "dist", "", 0, 100, 10); // no samples
    std::ostringstream os;
    root.dumpJson(os);
    const std::string text = os.str();
    EXPECT_EQ(text.front(), '{');
    EXPECT_NE(text.find("\"sim.a\": 3"), std::string::npos);
    // The unsampled distribution's NaN min/max must become JSON null,
    // never a bare nan token.
    EXPECT_NE(text.find("\"sim.dist::min\": null"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    EXPECT_NE(text.find("\n}\n"), std::string::npos);
}

TEST(Stats, FormulaLazy)
{
    stats::StatGroup root("root");
    stats::Scalar a(&root, "a", "");
    stats::Scalar b(&root, "b", "");
    stats::Formula ratio(&root, "ratio", "",
                         [&] { return b.value() ? a.value() / b.value()
                                                : 0.0; });
    EXPECT_EQ(ratio.value(), 0.0);
    a = 10;
    b = 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 2.5);
}

TEST(Stats, GroupNestingAndFind)
{
    stats::StatGroup root("sim");
    stats::StatGroup child("core", &root);
    stats::Scalar cycles(&child, "cycles", "");
    cycles = 123;

    const stats::StatBase *found = root.find("core.cycles");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name(), "cycles");
    EXPECT_EQ(root.find("core.nope"), nullptr);
    EXPECT_EQ(root.find("nope.cycles"), nullptr);
}

TEST(Stats, DumpContainsNamesAndValues)
{
    stats::StatGroup root("sim");
    stats::Scalar cycles(&root, "cycles", "simulated cycles");
    cycles = 42;
    std::ostringstream os;
    root.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("sim.cycles"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    EXPECT_NE(text.find("simulated cycles"), std::string::npos);
}

TEST(Stats, CsvRows)
{
    stats::StatGroup root("sim");
    stats::Scalar a(&root, "a", "");
    a = 3;
    std::ostringstream os;
    root.dumpCsv(os);
    EXPECT_NE(os.str().find("sim.a,3"), std::string::npos);
}

// csvRows must expose everything print() shows — min/max, the
// out-of-range counters and every non-empty bucket — so the CSV/JSON
// side of an experiment carries the full histogram.
TEST(Stats, DistributionCsvParity)
{
    stats::StatGroup root("sim");
    stats::Distribution dist(&root, "dist", "", 0, 100, 10);
    dist.sample(-5);   // underflow
    dist.sample(0);    // bucket [0]
    dist.sample(9.5);  // bucket [0]
    dist.sample(55);   // bucket [50]
    dist.sample(150);  // overflow

    std::vector<std::pair<std::string, double>> rows;
    root.collect(rows);
    auto value = [&](const std::string &name) -> double {
        for (const auto &[row, v] : rows)
            if (row == name)
                return v;
        ADD_FAILURE() << "missing row " << name;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value("sim.dist::samples"), 5.0);
    EXPECT_DOUBLE_EQ(value("sim.dist::min"), -5.0);
    EXPECT_DOUBLE_EQ(value("sim.dist::max"), 150.0);
    EXPECT_DOUBLE_EQ(value("sim.dist::underflows"), 1.0);
    EXPECT_DOUBLE_EQ(value("sim.dist::overflows"), 1.0);
    EXPECT_DOUBLE_EQ(value("sim.dist::[0]"), 2.0);
    EXPECT_DOUBLE_EQ(value("sim.dist::[50]"), 1.0);
    // Empty buckets stay omitted, matching print().
    for (const auto &[row, v] : rows)
        EXPECT_NE(row, "sim.dist::[10]");
}

TEST(Stats, ResetAllRecurses)
{
    stats::StatGroup root("sim");
    stats::StatGroup child("core", &root);
    stats::Scalar a(&root, "a", "");
    stats::Scalar b(&child, "b", "");
    a = 1;
    b = 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0.0);
    EXPECT_EQ(b.value(), 0.0);
}

} // anonymous namespace
