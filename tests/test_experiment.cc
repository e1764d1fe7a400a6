/**
 * @file
 * Experiment-harness tests: the penalty metric math, baseline
 * memoization, parameter parsing, and the Figure 7 mixes.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"

namespace
{

using namespace zmt;

TEST(PenaltyMath, PerMissAndFraction)
{
    PenaltyResult r;
    r.mech.measuredCycles = 1200;
    r.mech.measuredMisses = 50;
    r.mech.measuredInsts = 10000;
    r.perfect.measuredCycles = 1000;
    EXPECT_DOUBLE_EQ(r.penaltyPerMiss(), 4.0);
    EXPECT_DOUBLE_EQ(r.tlbFraction(), 200.0 / 1200.0);
    EXPECT_DOUBLE_EQ(r.missesPerKilo(), 5.0);
}

TEST(PenaltyMath, ZeroMissesIsZeroPenalty)
{
    PenaltyResult r;
    r.mech.measuredCycles = 1200;
    r.perfect.measuredCycles = 1000;
    r.mech.measuredMisses = 0;
    EXPECT_EQ(r.penaltyPerMiss(), 0.0);
}

TEST(PenaltyMath, Speedup)
{
    PenaltyResult r;
    r.mech.measuredCycles = 800;
    CoreResult traditional;
    traditional.measuredCycles = 1000;
    EXPECT_DOUBLE_EQ(r.speedupOver(traditional), 1.25);
}

TEST(Experiment, BaselineIsMemoized)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;

    PenaltyResult a = measurePenalty(params, benchmarkWorkloads({"compress"}));
    params.except.mech = ExceptMech::Hardware;
    PenaltyResult b = measurePenalty(params, benchmarkWorkloads({"compress"}));
    // Identical baseline object values: the perfect run was reused.
    EXPECT_EQ(a.perfect.cycles, b.perfect.cycles);
    EXPECT_EQ(a.perfect.userInsts, b.perfect.userInsts);
}

TEST(Experiment, DifferentShapesGetDifferentBaselines)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;
    PenaltyResult wide =
        measurePenalty(params, benchmarkWorkloads({"murphi"}));
    params.core.setWidth(2);
    PenaltyResult narrow =
        measurePenalty(params, benchmarkWorkloads({"murphi"}));
    EXPECT_NE(wide.perfect.cycles, narrow.perfect.cycles);
}

// Regression for the stale-baseline-cache bug: the old cache key
// serialized a hand-picked subset of SimParams (width, window,
// frontend depth, run lengths, seed, DTLB entries), so two
// configurations that differed only in an omitted field — memory
// latency, cache geometry, predictor shape — silently shared one
// baseline. The canonical key serializes every field; mutating any of
// these previously-omitted knobs must change it.
TEST(Experiment, CanonicalKeyCoversPreviouslyOmittedFields)
{
    const std::string base = SimParams().canonicalKey();
    const std::vector<
        std::pair<const char *, std::function<void(SimParams &)>>>
        mutations = {
            {"mem.memLatency",
             [](SimParams &p) { p.mem.memLatency = 300; }},
            {"mem.l2SizeKb", [](SimParams &p) { p.mem.l2SizeKb = 4096; }},
            {"mem.l2Latency", [](SimParams &p) { p.mem.l2Latency = 25; }},
            {"mem.l1dSizeKb", [](SimParams &p) { p.mem.l1dSizeKb = 128; }},
            {"mem.l1dLineBytes",
             [](SimParams &p) { p.mem.l1dLineBytes *= 2; }},
            {"bpred.historyBits",
             [](SimParams &p) { p.bpred.historyBits += 1; }},
            {"core.fetchBufEntries",
             [](SimParams &p) { p.core.fetchBufEntries = 64; }},
            {"core.intAluCount",
             [](SimParams &p) { p.core.intAluCount += 1; }},
            {"except.quickStartWarmup",
             [](SimParams &p) { p.except.quickStartWarmup += 8; }},
            {"except.idleThreads",
             [](SimParams &p) { p.except.idleThreads += 1; }},
            {"verify.badPteProb",
             [](SimParams &p) { p.verify.badPteProb = 0.125; }},
            {"watchdogCycles",
             [](SimParams &p) { p.watchdogCycles += 1; }},
        };
    for (const auto &[what, mutate] : mutations) {
        SimParams mutated;
        mutate(mutated);
        EXPECT_NE(mutated.canonicalKey(), base) << what;
    }
}

TEST(Experiment, CanonicalKeyEnumeratesWholeParamSpace)
{
    SimParams params;
    const std::string key = params.canonicalKey();
    params.forEachParam(
        [&](const std::string &name, const std::string &value) {
            EXPECT_NE(key.find(name + "=" + value + ";"),
                      std::string::npos)
                << name;
        });
}

// End-to-end version of the same regression: two penalty measurements
// that differ only in memory latency must each get their own baseline
// run, with visibly different perfect-TLB cycle counts.
TEST(Experiment, OmittedFieldMutationGetsFreshBaseline)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;

    PenaltyResult fast =
        measurePenalty(params, benchmarkWorkloads({"compress"}));
    EXPECT_EQ(baselineCacheSize(), 1u);
    params.mem.memLatency = 400;
    PenaltyResult slow =
        measurePenalty(params, benchmarkWorkloads({"compress"}));
    EXPECT_EQ(baselineCacheSize(), 2u);
    EXPECT_NE(fast.perfect.measuredCycles, slow.perfect.measuredCycles);
}

// A perfect-TLB configuration is its own baseline: one simulation,
// reported as both mech and perfect, with zero penalty.
TEST(Experiment, PerfectTlbMechReusesBaseline)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::PerfectTlb;
    PenaltyResult r = measurePenalty(params, benchmarkWorkloads({"compress"}));
    EXPECT_EQ(baselineCacheSize(), 1u);
    EXPECT_EQ(r.mech.cycles, r.perfect.cycles);
    EXPECT_DOUBLE_EQ(r.penaltyPerMiss(), 0.0);
}

// Only the handler-thread mechanisms read idleThreads, so a Figure 5
// row — traditional, multithreaded(1), multithreaded(3), hardware —
// needs one perfect-TLB baseline, not one per idle-context count. The
// shared baseline must still equal a fresh perfect-TLB run at each
// cell's own idleThreads.
TEST(Experiment, IdleThreadCountsShareOneBaseline)
{
    clearBaselineCache();
    const std::pair<ExceptMech, unsigned> cells[] = {
        {ExceptMech::Traditional, 0},
        {ExceptMech::Multithreaded, 1},
        {ExceptMech::Multithreaded, 3},
        {ExceptMech::Hardware, 0},
    };
    for (const auto &[mech, idle] : cells) {
        SimParams params;
        params.maxInsts = 15000;
        params.except.mech = mech;
        params.except.idleThreads = idle;
        PenaltyResult r =
            measurePenalty(params, benchmarkWorkloads({"compress"}));

        SimParams perfect = params;
        perfect.except.mech = ExceptMech::PerfectTlb;
        CoreResult fresh =
            runSimulation(perfect, benchmarkWorkloads({"compress"}));
        std::string cell = std::string(mechName(mech)) + "/" +
                           std::to_string(idle);
        EXPECT_TRUE(r.perfect.ok()) << cell;
        EXPECT_EQ(r.perfect.cycles, fresh.cycles) << cell;
        EXPECT_EQ(r.perfect.userInsts, fresh.userInsts) << cell;
        EXPECT_EQ(r.perfect.measuredCycles, fresh.measuredCycles) << cell;
        EXPECT_EQ(r.perfect.measuredInsts, fresh.measuredInsts) << cell;
        EXPECT_EQ(r.perfect.ipc, fresh.ipc) << cell;
    }
    EXPECT_EQ(baselineCacheSize(), 1u);
}

// A benchmark's short and long names resolve to one workload in
// wload, so both spellings of one simulation are one cell with one
// memoized baseline. A key over the names would tell the spellings
// apart and run two identical baselines.
TEST(Experiment, NameSpellingsShareOneBaseline)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;

    const std::vector<WorkloadParams> adm = benchmarkWorkloads({"adm"});
    const std::vector<WorkloadParams> alphadoom =
        benchmarkWorkloads({"alphadoom"});
    EXPECT_EQ(cellKey(params, adm), cellKey(params, alphadoom));
    PenaltyResult a = measurePenalty(params, adm);
    PenaltyResult b = measurePenalty(params, alphadoom);
    EXPECT_EQ(baselineCacheSize(), 1u);
    EXPECT_EQ(a.perfect.cycles, b.perfect.cycles);
    EXPECT_EQ(a.mech.cycles, b.mech.cycles);
}

TEST(Experiment, BaselineParamsChangesOnlyBaselineFields)
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 3;
    params.obs.attrib = true;
    params.obs.trace = "exc";
    params.obs.pipeview = "cell.konata";
    params.obs.events = "cell.json";
    params.ffwd.insts = 5000;
    params.ffwd.save = "cell.ckpt";
    params.mem.memLatency = 300;
    params.core.setWidth(4);
    params.verify.seed = 9;
    params.maxInsts = 15000;
    params.warmupInsts = 5000;

    auto fields = [](const SimParams &p) {
        std::map<std::string, std::string> out;
        p.forEachParam([&](const std::string &name,
                           const std::string &value) { out[name] = value; });
        return out;
    };
    const SimParams perfect = baselineParams(params);
    EXPECT_EQ(perfect.except.mech, ExceptMech::PerfectTlb);
    EXPECT_EQ(perfect.except.idleThreads, 0u);
    EXPECT_TRUE(perfect.ffwd.save.empty());

    const auto given = fields(params);
    const auto defaults = fields(SimParams());
    for (const auto &[name, value] : fields(perfect)) {
        if (name.rfind("obs.", 0) == 0) {
            EXPECT_EQ(value, defaults.at(name)) << name;
        } else if (name != "except.mech" && name != "except.idleThreads" &&
                   name != "ffwd.save") {
            EXPECT_EQ(value, given.at(name)) << name;
        }
    }
}

TEST(Experiment, PenaltyBaselineIsTheBaselineParamsRun)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 15000;
    params.warmupInsts = 5000;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 3;
    params.obs.attrib = true;
    const std::vector<WorkloadParams> murphi =
        benchmarkWorkloads({"murphi"});

    PenaltyResult r = measurePenalty(params, murphi);
    CoreResult fresh = runSimulation(baselineParams(params), murphi);
    EXPECT_EQ(r.perfect.cycles, fresh.cycles);
    EXPECT_EQ(r.perfect.userInsts, fresh.userInsts);
    EXPECT_EQ(r.perfect.tlbMisses, fresh.tlbMisses);
    EXPECT_EQ(r.perfect.measuredCycles, fresh.measuredCycles);
    EXPECT_EQ(r.perfect.measuredInsts, fresh.measuredInsts);
    EXPECT_EQ(r.perfect.ipc, fresh.ipc);
    EXPECT_EQ(r.perfect.attrib.completed, 0u); // obs cleared
    EXPECT_GT(r.mech.attrib.completed, 0u);
}

TEST(Experiment, Figure7MixesAreValid)
{
    const auto &mixes = figure7Mixes();
    EXPECT_EQ(mixes.size(), 8u); // the paper's eight combinations
    for (const auto &mix : mixes) {
        EXPECT_EQ(mix.size(), 3u);
        for (const auto &bench : mix)
            EXPECT_NO_FATAL_FAILURE(benchmarkParams(bench));
    }
}

TEST(Params, KeyValueParsing)
{
    SimParams params;
    params.setKeyValue("core.width=4");
    EXPECT_EQ(params.core.width, 4u);
    EXPECT_EQ(params.core.windowSize, 64u); // paired per Figure 3
    params.setKeyValue("except.mech=hardware");
    EXPECT_EQ(params.except.mech, ExceptMech::Hardware);
    params.setKeyValue("except.windowReservation=off");
    EXPECT_FALSE(params.except.windowReservation);
    params.setKeyValue("maxInsts=123456");
    EXPECT_EQ(params.maxInsts, 123456u);
}

TEST(Params, UnknownKeyIsFatal)
{
    SimParams params;
    EXPECT_EXIT(params.setKeyValue("core.bogus=1"),
                ::testing::ExitedWithCode(1), "unknown parameter");
}

TEST(Params, BadValueIsFatal)
{
    SimParams params;
    EXPECT_EXIT(params.setKeyValue("core.width=abc"),
                ::testing::ExitedWithCode(1), "bad numeric");
    EXPECT_EXIT(params.setKeyValue("except.mech=warp"),
                ::testing::ExitedWithCode(1), "unknown exception");
}

// A value the field cannot hold is an error, not a silent wrap or
// truncation (4294967360 used to run with a 64-entry window, -1 with a
// 2^32-1 one that panicked later, and maxInsts=-1 meant 2^64-1).
TEST(Params, OutOfRangeValueIsFatal)
{
    for (const char *assignment :
         {"core.windowSize=4294967360", "core.windowSize=-1",
          "core.width=-4", "core.frontendDepth=4294967303",
          "maxInsts=-1", "verify.seed=18446744073709551616",
          "helper.checkBase=-0x10", "maxInsts=0x800", "maxInsts=+5",
          "maxInsts= 5", "maxInsts=5k", "maxInsts=",
          // Probabilities: finite, decimal, in [0, 1].
          "verify.badPteProb=nan", "verify.badPteProb=inf",
          "verify.badPteProb= 0x1p-1", "verify.badPteProb=1.5",
          "verify.stealIdleProb=-0.25"}) {
        SimParams params;
        EXPECT_EXIT(params.setKeyValue(assignment),
                    ::testing::ExitedWithCode(1), "bad numeric value")
            << assignment;
    }
    SimParams params;
    params.setKeyValue("core.windowSize=4294967295");
    EXPECT_EQ(params.core.windowSize, 4294967295u);
    params.setKeyValue("maxInsts=18446744073709551615");
    EXPECT_EQ(params.maxInsts, 18446744073709551615u);
    // Decimal only: a leading zero is not octal.
    params.setKeyValue("maxInsts=02000");
    EXPECT_EQ(params.maxInsts, 2000u);
    params.setKeyValue("core.width=010");
    EXPECT_EQ(params.core.width, 10u);
    params.setKeyValue("verify.badPteProb=0.25");
    EXPECT_EQ(params.verify.badPteProb, 0.25);
    params.setKeyValue("verify.forceSecondaryMissProb=1e-3");
    EXPECT_EQ(params.verify.forceSecondaryMissProb, 1e-3);
}

SimParams
replayThroughSet(const SimParams &params)
{
    SimParams replayed;
    params.forEachParam(
        [&](const std::string &name, const std::string &value) {
            replayed.set(name, value);
        });
    return replayed;
}

// Every name a results file prints is settable, so a cell's "params"
// re-create its configuration exactly.
TEST(Params, ForEachParamRoundTripsThroughSet)
{
    const SimParams defaults;
    EXPECT_EQ(replayThroughSet(defaults).canonicalKey(),
              defaults.canonicalKey());

    SimParams params;
    params.core.setWidth(4);
    params.core.windowSize = 48; // not the 64 that width 4 pairs with
    params.core.setFrontendDepth(11);
    params.core.decodeDepth = 2;
    params.mem.l2Latency = 12;
    params.bpred.historyBits = 12;
    params.verify.badPteProb = 0.1;
    params.obs.trace = "exc,retire";
    params.except.mech = ExceptMech::QuickStart;
    ASSERT_NE(params.canonicalKey(), defaults.canonicalKey());
    EXPECT_EQ(replayThroughSet(params).canonicalKey(),
              params.canonicalKey());
}

TEST(Params, FrontendDepthDecomposition)
{
    SimParams params;
    for (unsigned depth : {3u, 5u, 7u, 9u, 11u, 15u}) {
        params.core.setFrontendDepth(depth);
        EXPECT_EQ(params.core.frontendDepth(), depth) << depth;
        EXPECT_GE(params.core.fetchDepth, 1u);
        EXPECT_GE(params.core.regReadDepth, 1u);
    }
}

TEST(Params, MechNamesRoundTrip)
{
    for (ExceptMech mech :
         {ExceptMech::PerfectTlb, ExceptMech::Traditional,
          ExceptMech::Multithreaded, ExceptMech::QuickStart,
          ExceptMech::Hardware}) {
        EXPECT_EQ(parseMech(mechName(mech)), mech);
    }
}

TEST(Params, SummaryMentionsMechanism)
{
    SimParams params;
    params.except.mech = ExceptMech::QuickStart;
    EXPECT_NE(params.summary().find("quickstart"), std::string::npos);
}

} // anonymous namespace
