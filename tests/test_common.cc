/**
 * @file
 * Unit tests for the common substrate: types, RNG, the statistics
 * package, and JSON emission and span reading.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/decimal.hh"
#include "common/json.hh"
#include "common/jsonparse.hh"
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

// The text dump and the CSV/JSON side print the same row list: min/max,
// the out-of-range counters and every non-empty bucket, under the same
// names and in the same order.
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
    // Empty buckets stay omitted.
    for (const auto &[row, v] : rows)
        EXPECT_NE(row, "sim.dist::[10]");

    std::ostringstream text;
    root.dump(text);
    std::istringstream lines(text.str());
    std::string line;
    size_t i = 0;
    while (std::getline(lines, line)) {
        ASSERT_LT(i, rows.size());
        EXPECT_EQ(line.substr(0, line.find(' ')), rows[i++].first);
    }
    EXPECT_EQ(i, rows.size());
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

TEST(Decimal, DigitsOnlyWithinBound)
{
    EXPECT_EQ(parseDecimal("02000", UINT64_MAX), 2000u); // not octal
    EXPECT_EQ(parseDecimal("4294967295", 4294967295u), 4294967295u);
    EXPECT_EQ(parseDecimal("18446744073709551615", UINT64_MAX),
              UINT64_MAX);
    for (const char *bad : {"", "0x800", "5k", "-1", "+1", " 1", "1 ",
                            "4294967296", "18446744073709551616"})
        EXPECT_FALSE(parseDecimal(bad, 4294967295u)) << bad;
}

TEST(Json, NumberNullsNonFinite)
{
    // NaN and infinity have no JSON spelling: null, never a bare nan.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(3), "3");
    // Finite values print with enough digits to read back exactly.
    const double third = 1.0 / 3.0;
    EXPECT_EQ(std::strtod(jsonNumber(third).c_str(), nullptr), third);
}

TEST(JsonSpan, LocatesMembersAndElements)
{
    const std::string doc =
        " {\"a\": [1, {\"b\": \"x\\\"y\\n\\u0001\"}, null], \"c\": true} ";
    jsonspan::Span root, a, b;
    std::string error;
    ASSERT_TRUE(jsonspan::validate(doc, &root, &error)) << error;
    ASSERT_TRUE(jsonspan::objectField(doc, root, "a", &a));
    std::vector<jsonspan::Span> elements;
    ASSERT_TRUE(jsonspan::arrayElements(doc, a, &elements));
    ASSERT_EQ(elements.size(), 3u);
    EXPECT_TRUE(jsonspan::isNull(doc, elements[2]));
    ASSERT_TRUE(jsonspan::objectField(doc, elements[1], "b", &b));
    std::string text;
    ASSERT_TRUE(jsonspan::decodeString(doc, b, &text));
    EXPECT_EQ(text, std::string("x\"y\n\x01"));
    EXPECT_FALSE(jsonspan::objectField(doc, root, "missing", &b));
    EXPECT_FALSE(jsonspan::objectField(doc, a, "a", &b)); // not an object

    // jsonEscape's output decodes back to every byte it was given.
    std::string bytes;
    for (int c = 0; c < 256; ++c)
        bytes += char(c);
    std::string quoted = jsonEscape(bytes);
    quoted.insert(quoted.begin(), '"');
    quoted += '"';
    ASSERT_TRUE(jsonspan::validate(quoted, &root));
    ASSERT_TRUE(jsonspan::decodeString(quoted, root, &text));
    EXPECT_EQ(text, bytes);

    for (const char *bad : {"", "{", "[1,]x", "{\"a\" 1}", "\"open", "nul"})
        EXPECT_FALSE(jsonspan::validate(bad)) << bad;
}

TEST(JsonSpan, DecodeUnsignedIsExact)
{
    auto decode = [](const std::string &doc, uint64_t *out) {
        jsonspan::Span span;
        return jsonspan::validate(doc, &span) &&
               jsonspan::decodeUnsigned(doc, span, out);
    };
    uint64_t v = 0;
    ASSERT_TRUE(decode("9007199254740993", &v)); // 2^53 + 1
    EXPECT_EQ(v, (uint64_t(1) << 53) + 1);
    ASSERT_TRUE(decode("18446744073709551615", &v));
    EXPECT_EQ(v, UINT64_MAX);
    ASSERT_TRUE(decode("0", &v));
    EXPECT_EQ(v, 0u);
    for (const char *bad :
         {"-1", "1.5", "1e3", "18446744073709551616", "99999999999999999999",
          "null", "\"1\""})
        EXPECT_FALSE(decode(bad, &v)) << bad;
}

TEST(JsonSpan, DeepNestingRejected)
{
    // Without a depth bound the recursive scan overflows the stack
    // long before it reaches the end of this.
    std::string error;
    EXPECT_FALSE(jsonspan::validate(std::string(300000, '['), nullptr,
                                    &error));
    EXPECT_NE(error.find("64"), std::string::npos) << error;
    EXPECT_FALSE(jsonspan::validate(std::string(300000, '{'), nullptr,
                                    &error));

    // Up to the bound, nesting is fine.
    const std::string deepest =
        std::string(64, '[') + std::string(64, ']');
    EXPECT_TRUE(jsonspan::validate(deepest, nullptr, &error)) << error;
    EXPECT_FALSE(jsonspan::validate("[" + deepest + "]", nullptr, &error));
}

} // anonymous namespace
