/**
 * @file
 * Workload-generator tests: image well-formedness for every preset,
 * chase-list topology, register presets, functional progress, and the
 * statistical properties the calibration relies on (far accesses span
 * many pages; correct-path accesses stay mapped).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "kernel/funcmachine.hh"
#include "wload/workload.hh"

namespace
{

using namespace zmt;

class PresetTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(PresetTest, BuildsWellFormedImage)
{
    WorkloadParams wp = benchmarkParams(GetParam());
    EXPECT_EQ(wp.name, GetParam());
    ProcessImage image = buildWorkload(wp);

    EXPECT_GT(image.text.size(), 10u);
    EXPECT_GE(image.vaLimit, image.text.end());
    EXPECT_FALSE(image.mapRanges.empty());
    // Text below hot base, hot below far base.
    EXPECT_LE(image.text.end(), wp.hotBase);
    EXPECT_LE(wp.hotBase + wp.hotBytes(), wp.farBase);
}

TEST_P(PresetTest, AllWordsDecode)
{
    ProcessImage image = buildWorkload(benchmarkParams(GetParam()));
    for (isa::InstWord word : image.text.words)
        EXPECT_TRUE(isa::decode(word).valid());
}

TEST_P(PresetTest, RunsFunctionallyWithoutFaults)
{
    // The golden machine panics on stores to unmapped addresses, so a
    // clean run proves every correct-path access stays mapped.
    WorkloadParams wp = benchmarkParams(GetParam());
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);
    ArchResult result = machine.run(30000);
    EXPECT_EQ(result.instsExecuted, 30000u);
    EXPECT_FALSE(result.halted); // benchmarks loop forever
}

TEST_P(PresetTest, FarAccessesSpanManyPages)
{
    // Track distinct far-region pages touched in a functional run.
    WorkloadParams wp = benchmarkParams(GetParam());
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);

    std::set<Addr> far_pages;
    for (int i = 0; i < 200000 && far_pages.size() < 40; ++i) {
        machine.step();
        // Approximation: watch the scratch address register (r6).
        Addr addr = machine.state().readInt(6);
        if (addr >= wp.farBase && addr < wp.farBase + (wp.farPages() << 13))
            far_pages.insert(pageNum(addr));
    }
    EXPECT_GE(far_pages.size(), 30u)
        << "far accesses should roam well beyond the 64-entry TLB";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PresetTest,
                         ::testing::ValuesIn(benchmarkNames()));

TEST(Workload, EightBenchmarks)
{
    EXPECT_EQ(benchmarkNames().size(), 8u);
}

TEST(Workload, ShortNamesMatchPaper)
{
    EXPECT_EQ(shortName("alphadoom"), "adm");
    EXPECT_EQ(shortName("compress"), "cmp");
    EXPECT_EQ(shortName("hydro2d"), "h2d");
    EXPECT_EQ(shortName("vortex"), "vor");
}

TEST(Workload, ShortAliasesResolve)
{
    EXPECT_EQ(benchmarkParams("cmp").name, "compress");
    EXPECT_EQ(benchmarkParams("adm").name, "alphadoom");
}

TEST(Workload, UnknownBenchmarkIsFatal)
{
    EXPECT_EXIT(benchmarkParams("quake"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

TEST(Workload, ChaseListIsASingleCycle)
{
    WorkloadParams wp = benchmarkParams("deltablue");
    ASSERT_GT(wp.chaseLoads, 0u);
    ProcessImage image = buildWorkload(wp);

    // Rebuild the pointer graph from the data words and verify it is
    // one cycle covering every node.
    std::map<Addr, Addr> next;
    for (const auto &[va, value] : image.dataWords)
        next[va] = value;
    ASSERT_FALSE(next.empty());

    Addr start = next.begin()->first;
    Addr cursor = start;
    size_t steps = 0;
    do {
        auto it = next.find(cursor);
        ASSERT_NE(it, next.end()) << "chain leaves the node set";
        cursor = it->second;
        ++steps;
        ASSERT_LE(steps, next.size());
    } while (cursor != start);
    EXPECT_EQ(steps, next.size());
}

TEST(Workload, DistinctSeedsChangeTheImage)
{
    WorkloadParams a = benchmarkParams("compress");
    WorkloadParams b = benchmarkParams("compress");
    b.seed ^= 0x1234567;
    ProcessImage ia = buildWorkload(a);
    ProcessImage ib = buildWorkload(b);
    // Same text, different initial LCG state.
    EXPECT_EQ(ia.text.words, ib.text.words);
    EXPECT_NE(ia.initIntRegs[1], ib.initIntRegs[1]);
}

TEST(Workload, PresetCharactersMatchThePaper)
{
    // Table 2/4 qualitative characteristics.
    EXPECT_GT(benchmarkParams("applu").fpChains, 0u);    // SpecFP
    EXPECT_GT(benchmarkParams("hydro2d").fpChains, 0u);  // SpecFP
    EXPECT_TRUE(benchmarkParams("hydro2d").useFpDiv);    // lowest IPC
    EXPECT_GT(benchmarkParams("deltablue").chaseLoads, 0u); // OO chasing
    EXPECT_GT(benchmarkParams("gcc").indirectFarJumps, 0u); // wrong paths
    EXPECT_EQ(benchmarkParams("alphadoom").fpChains, 0u);   // integer
    // compress has by far the densest miss stream (Table 2: 230k per
    // 100M instructions, ~2.7x the runner-up vortex): its far phase
    // recurs after the fewest inner iterations.
    EXPECT_LE(benchmarkParams("compress").innerIters, 16u);
    for (const auto &name : benchmarkNames()) {
        if (name == "compress")
            continue;
        EXPECT_GT(benchmarkParams(name).innerIters,
                  benchmarkParams("compress").innerIters)
            << name;
    }
}

TEST(Workload, CanonicalKeyRoundTrips)
{
    std::vector<std::string> names = benchmarkNames();
    names.push_back("racetest");
    for (const auto &name : names) {
        const std::string key = canonicalKey(benchmarkParams(name));
        WorkloadParams parsed;
        std::string why;
        ASSERT_TRUE(parseWorkloadKey(key, &parsed, &why))
            << name << ": " << why;
        EXPECT_EQ(canonicalKey(parsed), key) << name;
    }

    const std::string key = canonicalKey(benchmarkParams("compress"));
    auto edited = [&](const std::string &from, const std::string &to) {
        std::string text = key;
        size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? text
                                       : text.replace(at, from.size(), to);
    };
    auto rejects = [](const std::string &text, const std::string &reason) {
        WorkloadParams parsed;
        std::string why;
        EXPECT_FALSE(parseWorkloadKey(text, &parsed, &why)) << text;
        EXPECT_NE(why.find(reason), std::string::npos) << why;
    };
    rejects(edited("fsqrtOps=0;", ""), "expected workload field 'fsqrtOps'");
    rejects(edited("fsqrtOps=0;", "fsqrtOps=0;bogus=1;"),
            "expected workload field 'serialMuls'");
    rejects(key + "bogus=1;", "unknown workload field 'bogus=1;'");
    rejects(key.substr(0, key.size() - 1), "not ';'-terminated");
    rejects(edited("innerIters=8;", "innerIters=4294967296;"), "malformed");
    rejects(edited("innerIters=8;", "innerIters=-8;"), "malformed");
    rejects(edited("seed=", "seed=-"), "malformed");
    rejects(edited("seed=", "seed=18446744073709551616"), "malformed");
    rejects(edited("useFpDiv=0;", "useFpDiv=2;"), "malformed");
}

TEST(Workload, ValidationRejectsBadParams)
{
    WorkloadParams wp;
    wp.innerIters = 0;
    EXPECT_EXIT(buildWorkload(wp), ::testing::ExitedWithCode(1),
                "innerIters");

    WorkloadParams overlap;
    overlap.hotBytesLog2 = 26; // hot region would swallow the far base
    EXPECT_EXIT(buildWorkload(overlap), ::testing::ExitedWithCode(1),
                "overlap");
}

} // anonymous namespace
