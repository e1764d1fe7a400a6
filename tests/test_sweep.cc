/**
 * @file
 * Sweep tests: the SweepRunner pool's parallel-for building block,
 * determinism of the job runner under parallelism (the --jobs 1 vs
 * --jobs 8 contract), baseline sharing across worker threads, flag
 * parsing, and the results document's schema (validated with a small
 * recursive-descent JSON parser so the files are guaranteed
 * machine-readable, not just grep-able).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/campaign.hh"

namespace
{

using namespace zmt;

// ---------------------------------------------------------------------
// Minimal JSON validator: skips one complete value, returns the index
// past it, or npos on malformed input. Enough to prove syntactic
// validity and to extract top-level keys.
// ---------------------------------------------------------------------

size_t skipValue(const std::string &s, size_t i);

size_t
skipWs(const std::string &s, size_t i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

size_t
skipString(const std::string &s, size_t i)
{
    if (i >= s.size() || s[i] != '"')
        return std::string::npos;
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i;
        else if (s[i] == '"')
            return i + 1;
    }
    return std::string::npos;
}

size_t
skipContainer(const std::string &s, size_t i, char open, char close,
              bool object)
{
    i = skipWs(s, i + 1); // past the opener
    if (i < s.size() && s[i] == close)
        return i + 1;
    while (i != std::string::npos && i < s.size()) {
        if (object) {
            i = skipString(s, skipWs(s, i));
            if (i == std::string::npos)
                return i;
            i = skipWs(s, i);
            if (i >= s.size() || s[i] != ':')
                return std::string::npos;
            ++i;
        }
        i = skipValue(s, skipWs(s, i));
        if (i == std::string::npos)
            return i;
        i = skipWs(s, i);
        if (i < s.size() && s[i] == ',') {
            i = skipWs(s, i + 1);
            continue;
        }
        if (i < s.size() && s[i] == close)
            return i + 1;
        return std::string::npos;
    }
    return std::string::npos;
}

size_t
skipValue(const std::string &s, size_t i)
{
    i = skipWs(s, i);
    if (i >= s.size())
        return std::string::npos;
    switch (s[i]) {
      case '"': return skipString(s, i);
      case '{': return skipContainer(s, i, '{', '}', true);
      case '[': return skipContainer(s, i, '[', ']', false);
      default: break;
    }
    static const std::string literals[] = {"true", "false", "null"};
    for (const auto &lit : literals)
        if (s.compare(i, lit.size(), lit) == 0)
            return i + lit.size();
    size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) ||
            std::strchr("+-.eE", s[i])))
        ++i;
    return i > start ? i : std::string::npos;
}

bool
isValidJson(const std::string &s)
{
    size_t end = skipValue(s, 0);
    return end != std::string::npos && skipWs(s, end) == s.size();
}

// ---------------------------------------------------------------------

SimParams
tinyParams(ExceptMech mech)
{
    SimParams params;
    params.maxInsts = 6000;
    params.warmupInsts = 2000;
    params.except.mech = mech;
    return params;
}

std::vector<SweepJob>
tinyJobList()
{
    std::vector<SweepJob> jobs;
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::Hardware}) {
        jobs.emplace_back(tinyParams(mech),
                          std::vector<std::string>{"compress"},
                          std::string("compress/") + mechName(mech));
        jobs.emplace_back(tinyParams(mech),
                          std::vector<std::string>{"murphi"},
                          std::string("murphi/") + mechName(mech));
    }
    return jobs;
}

void
expectSameResult(const CoreResult &a, const CoreResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.userInsts, b.userInsts) << what;
    EXPECT_EQ(a.tlbMisses, b.tlbMisses) << what;
    EXPECT_EQ(a.emulations, b.emulations) << what;
    EXPECT_EQ(a.measuredCycles, b.measuredCycles) << what;
    EXPECT_EQ(a.measuredInsts, b.measuredInsts) << what;
    EXPECT_EQ(a.measuredMisses, b.measuredMisses) << what;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << what;
}

/** @p outcomes as finished cells of an in-process campaign. */
std::vector<CampaignOutcome>
doneCells(const std::vector<SweepOutcome> &outcomes)
{
    std::vector<CampaignOutcome> cells(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        cells[i].state = CellState::Done;
        cells[i].outcome = outcomes[i];
    }
    return cells;
}

TEST(SweepRunner, ParallelForRunsEveryIndexExactlyOnce)
{
    SweepRunner runner(4);
    std::vector<std::atomic<int>> hits(257);
    runner.parallelFor(hits.size(),
                       [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(SweepRunner, ParallelForSerialAndEmpty)
{
    SweepRunner serial(1);
    EXPECT_EQ(serial.threads(), 1u);
    std::vector<int> order;
    serial.parallelFor(5, [&](size_t i) { order.push_back(int(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    serial.parallelFor(0, [&](size_t) { FAIL(); });
}

TEST(SweepRunner, DefaultsToHardwareConcurrency)
{
    SweepRunner runner(0);
    EXPECT_GE(runner.threads(), 1u);
}

// The acceptance contract: the same job list under --jobs 1 and
// --jobs 8 yields identical PenaltyResults, in submission order.
TEST(SweepRunner, DeterministicAcrossThreadCounts)
{
    const std::vector<SweepJob> jobs = tinyJobList();

    clearBaselineCache();
    std::vector<CampaignOutcome> serial =
        CampaignRunner(CampaignOptions{}, 1).run(jobs);
    clearBaselineCache();
    std::vector<CampaignOutcome> parallel =
        CampaignRunner(CampaignOptions{}, 8).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].state, CellState::Done) << jobs[i].label;
        EXPECT_EQ(parallel[i].state, CellState::Done) << jobs[i].label;
        const PenaltyResult &a = serial[i].outcome.result;
        const PenaltyResult &b = parallel[i].outcome.result;
        expectSameResult(a.mech, b.mech, jobs[i].label + " (mech)");
        expectSameResult(a.perfect, b.perfect,
                         jobs[i].label + " (perfect)");
    }
}

// Jobs sharing a machine shape must share one memoized baseline even
// when they run concurrently — and the canonical key must keep
// distinct workloads apart.
TEST(SweepRunner, BaselinesSharedAcrossWorkers)
{
    const std::vector<SweepJob> jobs = tinyJobList();
    clearBaselineCache();
    CampaignRunner(CampaignOptions{}, 8).run(jobs);
    // 6 jobs, 2 workloads, identical machine shape: 2 baselines.
    EXPECT_EQ(baselineCacheSize(), 2u);
}

TEST(SweepRunner, ParseJobsFlag)
{
    const char *raw[] = {"bench", "--jobs", "3", "keep", "--jobs=7",
                         nullptr};
    char *argv[6];
    for (int i = 0; i < 5; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    argv[5] = nullptr;
    int argc = 5;
    unsigned jobs = parseJobsFlag(argc, argv, 0);
    EXPECT_EQ(jobs, 7u); // last one wins
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "keep");
}

TEST(SweepJson, EscapesSpecials)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape("plain"), "plain");
}

TEST(SweepJson, SchemaFieldsPresentAndParseable)
{
    // Synthesized outcome — no simulation needed to test the emitter.
    SweepJob named(tinyParams(ExceptMech::Traditional), {"compress"},
                   "cell \"quoted\"/traditional");
    WorkloadParams wp;
    wp.name = "emul";
    SweepJob custom(tinyParams(ExceptMech::Multithreaded), {wp},
                    "cell/custom", /*skip_baseline=*/true);

    SweepOutcome a;
    a.result.mech.cycles = 1234;
    a.result.mech.measuredCycles = 1000;
    a.result.mech.measuredMisses = 10;
    a.result.mech.measuredInsts = 5000;
    a.result.perfect.measuredCycles = 900;
    a.wallSeconds = 0.25;
    SweepOutcome b;

    std::string json =
        campaignResultsJson("bench_unit", {named, custom}, doneCells({a, b}),
                            8, 1.5, CampaignOptions{}, false);

    ASSERT_TRUE(isValidJson(json)) << json;
    for (const char *key :
         {"\"schema\":\"zmt-sweep-results-v1\"", "\"name\":\"bench_unit\"",
          "\"jobs\":8", "\"wall_seconds\":", "\"cells\":[", "\"label\":",
          "\"index\":0", "\"failure\":null",
          "\"benchmarks\":[\"compress\"]", "\"penalty_per_miss\":",
          "\"tlb_fraction\":", "\"ipc\":", "\"misses_per_kinst\":",
          "\"mech\":{\"status\":\"ok\"", "\"measured_cycles\":",
          "\"measured_misses\":", "\"emulations\":", "\"params\":{",
          "\"core.width\":\"8\"", "\"mem.memLatency\":\"80\"",
          "\"except.mech\":\"traditional\"", "\"maxInsts\":\"6000\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // The skip-baseline cell carries a null perfect run and the
    // workload-provided benchmark name.
    EXPECT_NE(json.find("\"perfect\":null"), std::string::npos);
    EXPECT_NE(json.find("\"benchmarks\":[\"emul\"]"), std::string::npos);
    // 10-miss cell: penalty = (1000 - 900) / 10.
    EXPECT_NE(json.find("\"penalty_per_miss\":10"), std::string::npos);
}

TEST(SweepJson, WholeParamSpaceSerialized)
{
    // Every forEachParam field must land in the JSON params object.
    SimParams params;
    size_t fields = 0;
    params.forEachParam(
        [&](const std::string &, const std::string &) { ++fields; });
    EXPECT_GE(fields, 50u);

    SweepJob job(params, std::vector<std::string>{"gcc"}, "cell");
    std::string json =
        campaignResultsJson("bench_unit", {job}, doneCells({SweepOutcome{}}),
                            1, 0.0, CampaignOptions{}, false);
    ASSERT_TRUE(isValidJson(json));
    params.forEachParam(
        [&](const std::string &name, const std::string &value) {
            std::string pair =
                "\"" + name + "\":\"" + value + "\"";
            EXPECT_NE(json.find(pair), std::string::npos) << pair;
        });
}

} // anonymous namespace
