/**
 * @file
 * Tests for the verification subsystem (src/verify): the fault
 * injector drives each rarely-taken exception path on demand and the
 * architectural result still matches the functional golden model; the
 * invariant checker catches a deliberately-seeded splice-ordering bug;
 * the watchdog turns livelock into a structured error status; and
 * everything is reproducible from its seed.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "verify/diffcheck.hh"

namespace zmt
{

/** White-box access to the core's pending completion events. */
class CoreTestAccess
{
  public:
    /** Drop the event of the oldest issued instruction; false if none. */
    static bool
    dropOldestIssuedEvent(SmtCore &core)
    {
        std::vector<InstPtr> *from = nullptr;
        size_t at = 0;
        for (auto &bucket : core.completionQueue.buckets) {
            for (size_t i = 0; i < bucket.size(); ++i) {
                if (bucket[i]->status == InstStatus::Issued &&
                    (!from || bucket[i]->seq < (*from)[at]->seq)) {
                    from = &bucket;
                    at = i;
                }
            }
        }
        if (!from)
            return false;
        from->erase(from->begin() + ptrdiff_t(at));
        return true;
    }
};

} // namespace zmt

namespace
{

using namespace zmt;

SimParams
mtParams(uint64_t insts = 30000)
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 1;
    params.maxInsts = insts;
    params.verify.invariantPeriod = 1; // audit every cycle
    return params;
}

double
stat(const Simulator &sim, const std::string &path)
{
    const stats::StatBase *s = sim.statsRoot().find("core." + path);
    if (auto *scalar = dynamic_cast<const stats::Scalar *>(s))
        return scalar->value();
    return -1.0;
}

/** Run, require success + zero invariant violations + golden match. */
CoreResult
runChecked(Simulator &sim)
{
    CoreResult result = sim.run();
    EXPECT_TRUE(result.ok()) << result.error;
    DiffResult diff = diffAgainstGolden(sim);
    EXPECT_TRUE(diff.ok()) << diff.summary();
    return result;
}

// ---------------------------------------------------------------------
// FaultInjector: each rare path fires and stays architecturally clean.
// ---------------------------------------------------------------------

TEST(FaultInjector, BadPteDrivesHardexcReversion)
{
    SimParams params = mtParams();
    params.verify.badPteProb = 0.5;

    Simulator sim(params, benchmarkWorkloads({"compress"}));
    runChecked(sim);

    EXPECT_GT(stat(sim, "verify.injectedBadPtes"), 0.0);
    EXPECT_GT(stat(sim, "hardReverts"), 0.0);
}

TEST(FaultInjector, WindowSqueezeDrivesDeadlockSquash)
{
    SimParams params = mtParams();
    params.verify.squeezePeriod = 400;
    params.verify.squeezeDuration = 120;
    params.verify.squeezeWindowTo = 24;

    Simulator sim(params, benchmarkWorkloads({"compress"}));
    runChecked(sim);

    EXPECT_GT(stat(sim, "verify.squeezeActivations"), 0.0);
    EXPECT_GT(stat(sim, "deadlockSquashes"), 0.0);
}

TEST(FaultInjector, ForcedBurstMissDrivesRelink)
{
    SimParams params = mtParams();
    params.verify.forceSecondaryMissProb = 0.8;

    Simulator sim(params, benchmarkWorkloads({"gcc"}));
    runChecked(sim);

    EXPECT_GT(stat(sim, "verify.injectedForcedMisses"), 0.0);
    EXPECT_GT(stat(sim, "relinks"), 0.0);
}

TEST(FaultInjector, StolenIdleContextDrivesTraditionalFallback)
{
    SimParams params = mtParams();
    params.verify.stealIdleProb = 0.5;

    Simulator sim(params, benchmarkWorkloads({"compress"}));
    runChecked(sim);

    EXPECT_GT(stat(sim, "verify.injectedCtxSteals"), 0.0);
    EXPECT_GT(stat(sim, "mtFallbacks"), 0.0);
}

TEST(FaultInjector, HandlerSquashReclaimsMidFlightHandlers)
{
    SimParams params = mtParams();
    params.verify.handlerSquashPeriod = 40;

    Simulator sim(params, benchmarkWorkloads({"gcc"}));
    runChecked(sim);

    EXPECT_GT(stat(sim, "verify.injectedHandlerSquashes"), 0.0);
}

TEST(FaultInjector, AllInjectionsAtOnceUnderQuickStart)
{
    SimParams params = mtParams();
    params.except.mech = ExceptMech::QuickStart;
    params.verify.badPteProb = 0.3;
    params.verify.stealIdleProb = 0.2;
    params.verify.forceSecondaryMissProb = 0.5;
    params.verify.squeezePeriod = 500;
    params.verify.squeezeDuration = 100;
    params.verify.handlerSquashPeriod = 700;

    Simulator sim(params, benchmarkWorkloads({"vortex"}));
    runChecked(sim);
}

TEST(FaultInjector, SmtMixSurvivesInjection)
{
    SimParams params = mtParams(45000);
    params.verify.badPteProb = 0.3;
    params.verify.forceSecondaryMissProb = 0.4;

    Simulator sim(params,
                  benchmarkWorkloads({"compress", "murphi", "vortex"}));
    runChecked(sim);
}

TEST(FaultInjector, DeterministicUnderSeed)
{
    SimParams params = mtParams(20000);
    params.verify.badPteProb = 0.4;
    params.verify.seed = 42;

    Simulator a(params, benchmarkWorkloads({"compress"}));
    Simulator b(params, benchmarkWorkloads({"compress"}));
    CoreResult ra = a.run();
    CoreResult rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(stat(a, "hardReverts"), stat(b, "hardReverts"));
    EXPECT_EQ(stat(a, "verify.injectedBadPtes"),
              stat(b, "verify.injectedBadPtes"));
}

// ---------------------------------------------------------------------
// InvariantChecker: a seeded splice-ordering bug must be caught.
// ---------------------------------------------------------------------

TEST(InvariantChecker, CatchesSeededSpliceOrderingBug)
{
    SimParams params = mtParams();
    params.verify.mutateSpliceBug = true;

    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();

    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status, RunStatus::InvariantViolation);
    EXPECT_NE(result.error.find("splice ordering"), std::string::npos)
        << result.error;
}

TEST(InvariantCheckerDeathTest, CatchesALostCompletionEvent)
{
    SimParams params = mtParams();
    params.verify.invariantPeriod = 0; // only the core's own audit
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    SmtCore &core = sim.core();
    while (core.now() < 1000)
        core.tick();
    ASSERT_EQ(InvariantChecker::windowViolation(core), "");

    ASSERT_TRUE(CoreTestAccess::dropOldestIssuedEvent(core));
    EXPECT_NE(InvariantChecker::windowViolation(core).find(
                  "completion queue holds"),
              std::string::npos);
    // The core audits every 1024 cycles, so the lost event panics
    // there instead of stalling retirement until the watchdog.
    EXPECT_DEATH(
        {
            while (core.now() <= 1024)
                core.tick();
        },
        "window audit: completion queue holds");
}

TEST(InvariantChecker, CleanRunsHaveNoViolations)
{
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::QuickStart, ExceptMech::Hardware}) {
        SimParams params = mtParams(20000);
        params.except.mech = mech;

        Simulator sim(params, benchmarkWorkloads({"gcc"}));
        CoreResult result = sim.run();
        EXPECT_TRUE(result.ok()) << mechName(mech) << ": " << result.error;
        ASSERT_NE(sim.core().invariants(), nullptr);
        EXPECT_EQ(sim.core().invariants()->violationCount(), 0u)
            << mechName(mech) << ": "
            << sim.core().invariants()->firstViolation();
    }
}

// ---------------------------------------------------------------------
// Structured run statuses.
// ---------------------------------------------------------------------

TEST(RunStatus, WatchdogReportsLivelockGracefully)
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.maxInsts = 50000;
    params.watchdogCycles = 200; // far too few to finish

    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();

    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status, RunStatus::Livelock);
    EXPECT_NE(result.error.find("livelock"), std::string::npos);
    // The partial result is still populated for reporting.
    EXPECT_GT(result.cycles, 0u);
}

TEST(RunStatus, CompletedRunsReportOk)
{
    SimParams params = mtParams(15000);
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.status, RunStatus::Ok);
    EXPECT_TRUE(result.error.empty());
}

// ---------------------------------------------------------------------
// DiffChecker plumbing.
// ---------------------------------------------------------------------

TEST(DiffChecker, ReportsPerThreadResults)
{
    SimParams params = mtParams(30000);
    Simulator sim(params, benchmarkWorkloads({"compress", "vortex"}));
    ASSERT_TRUE(sim.run().ok());

    DiffResult diff = diffAgainstGolden(sim);
    ASSERT_EQ(diff.threads.size(), 2u);
    EXPECT_TRUE(diff.ok()) << diff.summary();
    for (const ThreadDiff &t : diff.threads) {
        EXPECT_GT(t.timingInsts, 0u);
        EXPECT_EQ(t.timingInsts, t.goldenInsts);
        EXPECT_EQ(t.timingHash, t.goldenHash);
    }
}

TEST(DiffChecker, EmulatedFsqrtStaysGolden)
{
    SimParams params = mtParams(15000);
    params.except.emulateFsqrt = true;
    params.verify.badPteProb = 0.3;

    WorkloadParams wp = benchmarkParams("hydro2d");
    wp.fsqrtOps = 2;
    Simulator sim(params, std::vector<WorkloadParams>{wp});
    runChecked(sim);
    EXPECT_GT(stat(sim, "emulDone"), 0.0);
}

} // anonymous namespace
