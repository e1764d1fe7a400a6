/**
 * @file
 * Core integration tests. The central property: every exception
 * architecture must produce the *identical architectural result*
 * (retired store stream) as the functional golden model — squash,
 * trap, splice, relink, reversion and speculative fills are all
 * timing-only. On top of that: mechanism-specific behaviours (spawns,
 * splices, fallbacks, deadlock squashes, quick-start warm/cold,
 * walker activity), penalty ordering, determinism, and SMT mixes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "core/completionq.hh"
#include "isa/assembler.hh"
#include "kernel/funcmachine.hh"
#include "kernel/pal.hh"
#include "sim/experiment.hh"

namespace
{

using namespace zmt;

SimParams
smallParams(ExceptMech mech, uint64_t insts = 40000)
{
    SimParams params;
    params.except.mech = mech;
    params.except.idleThreads = 1;
    params.maxInsts = insts;
    return params;
}

/** Golden architectural hash: pure functional run of the same image. */
ArchResult
goldenRun(const WorkloadParams &wp, uint64_t insts)
{
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);
    return machine.run(insts);
}

// ---------------------------------------------------------------------
// Golden-model equivalence, parameterized over mechanism x benchmark.
// ---------------------------------------------------------------------

using MechBench = std::tuple<ExceptMech, std::string>;

class GoldenModelTest : public ::testing::TestWithParam<MechBench>
{};

TEST_P(GoldenModelTest, RetiredStoreStreamMatchesFunctionalRun)
{
    auto [mech, bench] = GetParam();
    SimParams params = smallParams(mech, 30000);

    Simulator sim(params, benchmarkWorkloads({bench}));
    sim.run();

    uint64_t retired = sim.core().retiredUserInsts(0);
    ASSERT_GE(retired, params.maxInsts);

    WorkloadParams wp = benchmarkParams(bench);
    ArchResult golden = goldenRun(wp, retired);
    EXPECT_EQ(sim.core().retiredStoreHash(0), golden.storeHash)
        << mechName(mech) << " on " << bench;
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, GoldenModelTest,
    ::testing::Combine(
        ::testing::Values(ExceptMech::PerfectTlb, ExceptMech::Traditional,
                          ExceptMech::Multithreaded,
                          ExceptMech::QuickStart, ExceptMech::Hardware),
        ::testing::Values("compress", "gcc", "vortex", "deltablue")),
    [](const auto &info) {
        return std::string(mechName(std::get<0>(info.param))) + "_" +
               std::get<1>(info.param);
    });

// ---------------------------------------------------------------------
// SMT mixes: every thread's architectural stream must be correct.
// ---------------------------------------------------------------------

class SmtMixTest : public ::testing::TestWithParam<ExceptMech>
{};

TEST_P(SmtMixTest, EveryThreadMatchesItsGolden)
{
    SimParams params = smallParams(GetParam(), 45000);
    const std::vector<WorkloadParams> mix =
        benchmarkWorkloads({"compress", "murphi", "vortex"});

    Simulator sim(params, mix);
    sim.run();

    for (unsigned i = 0; i < mix.size(); ++i) {
        uint64_t retired = sim.core().retiredUserInsts(i);
        EXPECT_GT(retired, 1000u) << "thread " << i << " starved";
        ArchResult golden = goldenRun(mix[i], retired);
        EXPECT_EQ(sim.core().retiredStoreHash(i), golden.storeHash)
            << "thread " << i << " (" << mix[i].name << ") under "
            << mechName(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mechs, SmtMixTest,
    ::testing::Values(ExceptMech::PerfectTlb, ExceptMech::Traditional,
                      ExceptMech::Multithreaded, ExceptMech::QuickStart,
                      ExceptMech::Hardware),
    [](const auto &info) { return mechName(info.param); });

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(Core, DeterministicCycleCounts)
{
    SimParams params = smallParams(ExceptMech::Multithreaded, 25000);
    CoreResult a = runSimulation(params, benchmarkWorkloads({"compress"}));
    CoreResult b = runSimulation(params, benchmarkWorkloads({"compress"}));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
}

// ---------------------------------------------------------------------
// Mechanism-specific behaviour.
// ---------------------------------------------------------------------

double
stat(const Simulator &sim, const std::string &path)
{
    const stats::StatBase *s = sim.statsRoot().find("core." + path);
    if (!s)
        return -1.0;
    if (auto *scalar = dynamic_cast<const stats::Scalar *>(s))
        return scalar->value();
    if (auto *formula = dynamic_cast<const stats::Formula *>(s))
        return formula->value();
    return -1.0;
}

TEST(Mechanism, PerfectTlbNeverMisses)
{
    Simulator sim(smallParams(ExceptMech::PerfectTlb),
                  benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    EXPECT_EQ(result.tlbMisses, 0u);
    EXPECT_EQ(stat(sim, "tlbMissesSeen"), 0.0);
    EXPECT_EQ(stat(sim, "retiredPal"), 0.0);
}

TEST(Mechanism, TraditionalTrapsAndRunsPal)
{
    Simulator sim(smallParams(ExceptMech::Traditional),
                  benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    EXPECT_GT(result.tlbMisses, 10u);
    EXPECT_GT(stat(sim, "trapSquashes"), 0.0);
    EXPECT_GT(stat(sim, "retiredPal"), 0.0);
    // Every completed handling retires the whole handler.
    EXPECT_GE(stat(sim, "retiredPal"),
              double(result.tlbMisses) * sim.palCode().dtbMissLen);
    EXPECT_EQ(stat(sim, "mtSpawns"), 0.0);
}

TEST(Mechanism, MultithreadedSpawnsAndSplices)
{
    Simulator sim(smallParams(ExceptMech::Multithreaded),
                  benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    EXPECT_GT(result.tlbMisses, 10u);
    EXPECT_GT(stat(sim, "mtSpawns"), 0.0);
    EXPECT_GT(stat(sim, "retiredPal"), 0.0);
    EXPECT_GT(stat(sim, "handlerActiveCycles"), 0.0);
    // Spawns plus traditional fallbacks must cover completed handlings.
    EXPECT_GE(stat(sim, "mtSpawns") + stat(sim, "mtFallbacks"),
              double(result.tlbMisses));
}

TEST(Mechanism, HardwareWalksWithoutFetchingHandlers)
{
    Simulator sim(smallParams(ExceptMech::Hardware),
                  benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    EXPECT_GT(result.tlbMisses, 10u);
    // No handler instructions are ever fetched.
    EXPECT_EQ(stat(sim, "retiredPal"), 0.0);
    EXPECT_GT(stat(sim, "walker.walksStarted"), 0.0);
}

TEST(Mechanism, QuickStartWarmsTheBuffer)
{
    Simulator sim(smallParams(ExceptMech::QuickStart),
                  benchmarkWorkloads({"compress"}));
    sim.run();
    EXPECT_GT(stat(sim, "qsWarmStarts"), 0.0);
    // Warm + cold must equal the spawns.
    EXPECT_EQ(stat(sim, "qsWarmStarts") + stat(sim, "qsColdStarts"),
              stat(sim, "mtSpawns"));
}

TEST(Mechanism, MoreIdleThreadsReduceFallbacks)
{
    SimParams one = smallParams(ExceptMech::Multithreaded, 60000);
    one.except.idleThreads = 1;
    SimParams three = one;
    three.except.idleThreads = 3;

    Simulator sim1(one, benchmarkWorkloads({"compress"}));
    sim1.run();
    Simulator sim3(three, benchmarkWorkloads({"compress"}));
    sim3.run();
    EXPECT_LE(stat(sim3, "mtFallbacks"), stat(sim1, "mtFallbacks"));
}

TEST(Mechanism, RelinkOccursWithSecondaryMisses)
{
    // compress has page-dense far accesses: over a long enough run,
    // out-of-order detection of same-page misses re-links handlers.
    SimParams params = smallParams(ExceptMech::Multithreaded, 150000);
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    sim.run();
    EXPECT_GE(stat(sim, "relinks"), 0.0); // presence of the stat
    // The relink-disabled configuration must still be correct
    // (covered by GoldenModelTest) and must not relink.
    SimParams off = params;
    off.except.relinkSecondaryMiss = false;
    Simulator sim2(off, benchmarkWorkloads({"compress"}));
    sim2.run();
    EXPECT_EQ(stat(sim2, "relinks"), 0.0);
}

TEST(Mechanism, HandlerLengthMatchesReservation)
{
    Simulator sim(smallParams(ExceptMech::Multithreaded),
                  benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    // retiredPal == handlings * handler length (common path only).
    EXPECT_EQ(stat(sim, "retiredPal"),
              double(result.tlbMisses) * sim.palCode().dtbMissLen);
}

TEST(Mechanism, NoHardReversionsOnCorrectPathOnlyWorkloads)
{
    // compress has no wild wrong paths (no indirect far jumps), so the
    // page-fault reversion path must stay quiet.
    Simulator sim(smallParams(ExceptMech::Multithreaded),
                  benchmarkWorkloads({"compress"}));
    sim.run();
    EXPECT_EQ(stat(sim, "hardReverts"), 0.0);
}

TEST(Mechanism, WrongPathMissesDetectedOnGcc)
{
    Simulator sim(smallParams(ExceptMech::Hardware, 120000),
                  benchmarkWorkloads({"gcc"}));
    CoreResult result = sim.run();
    // gcc's indirect far jumps produce speculative misses beyond the
    // retired count (paper Section 5.3).
    EXPECT_GT(stat(sim, "tlbMissesSeen"), double(result.tlbMisses));
}

// ---------------------------------------------------------------------
// Penalty ordering: the paper's headline relationships.
// ---------------------------------------------------------------------

TEST(Penalty, OrderingOnCompress)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 250000;
    params.warmupInsts = 100000;

    const std::vector<WorkloadParams> compress =
        benchmarkWorkloads({"compress"});

    params.except.mech = ExceptMech::Traditional;
    double trad = measurePenalty(params, compress).penaltyPerMiss();
    params.except.mech = ExceptMech::Multithreaded;
    double mt = measurePenalty(params, compress).penaltyPerMiss();
    params.except.mech = ExceptMech::Hardware;
    double hw = measurePenalty(params, compress).penaltyPerMiss();

    // Traditional >> multithreaded > hardware > 0 (paper Figure 5).
    EXPECT_GT(trad, mt);
    EXPECT_GT(mt, hw);
    EXPECT_GT(hw, 0.0);
    // The multithreaded mechanism roughly halves the penalty.
    EXPECT_LT(mt, 0.75 * trad);
}

TEST(Penalty, DeeperPipesCostMore)
{
    clearBaselineCache();
    SimParams params;
    params.maxInsts = 250000;
    params.warmupInsts = 100000;
    params.except.mech = ExceptMech::Traditional;

    const std::vector<WorkloadParams> compress =
        benchmarkWorkloads({"compress"});

    params.core.setFrontendDepth(3);
    double shallow = measurePenalty(params, compress).penaltyPerMiss();
    params.core.setFrontendDepth(11);
    double deep = measurePenalty(params, compress).penaltyPerMiss();
    EXPECT_GT(deep, shallow); // paper Figure 2
}

// ---------------------------------------------------------------------
// Structural invariants.
// ---------------------------------------------------------------------

TEST(Core, HaltingProgramStopsCleanly)
{
    isa::Assembler a;
    a.addi(1, isa::ZeroReg, 5);
    a.label("loop");
    a.addi(2, 2, 1);
    a.addi(1, 1, -1);
    a.bne(1, "loop");
    a.halt();

    ProcessImage image;
    image.text = a.assemble(0x10000);
    image.vaLimit = 0x100000;

    SimParams params = smallParams(ExceptMech::Traditional, 1000);
    PhysMem mem;
    FrameAllocator frames;
    PalCode pal = buildPalCode();
    for (size_t i = 0; i < pal.prog.size(); ++i)
        mem.write32(pal.prog.base + i * 4, pal.prog.words[i]);
    Process proc(image, 1, mem, frames);
    std::vector<Process *> procs{&proc};
    stats::StatGroup root("sim");
    SmtCore core(params, procs, mem, pal, &root);

    // Tick until the program halts; it retires exactly 17 user insts
    // (1 + 5*3 + 1).
    for (int i = 0; i < 1000 && core.retiredUserInsts(0) < 17; ++i)
        core.tick();
    EXPECT_EQ(core.retiredUserInsts(0), 17u);
}

TEST(Core, LimitStudiesRunAndStayCorrect)
{
    for (const char *toggle :
         {"except.freeHandlerExecBw", "except.freeHandlerWindow",
          "except.freeHandlerFetchBw", "except.instantHandlerFetch"}) {
        SimParams params = smallParams(ExceptMech::Multithreaded, 25000);
        params.set(toggle, "1");
        Simulator sim(params, benchmarkWorkloads({"compress"}));
        sim.run();

        uint64_t retired = sim.core().retiredUserInsts(0);
        ArchResult golden = goldenRun(benchmarkParams("compress"),
                                      retired);
        EXPECT_EQ(sim.core().retiredStoreHash(0), golden.storeHash)
            << toggle;
    }
}

// Instant handler fetch dispatches a whole handler the cycle its miss
// is detected, without waiting for window room, so with three handler
// contexts handler entries can fill the window past its size. The
// core's periodic window audit must accept exactly that.
TEST(Core, InstantFetchWithThreeHandlersStaysCorrect)
{
    SimParams params = smallParams(ExceptMech::Multithreaded, 100000);
    params.except.idleThreads = 3;
    params.except.instantHandlerFetch = true;
    Simulator sim(params, benchmarkWorkloads({"deltablue"}));
    CoreResult result = sim.run();
    EXPECT_EQ(result.status, RunStatus::Ok) << result.error;

    uint64_t retired = sim.core().retiredUserInsts(0);
    ArchResult golden = goldenRun(benchmarkParams("deltablue"), retired);
    EXPECT_EQ(sim.core().retiredStoreHash(0), golden.storeHash);
}

TEST(Core, DesignOptionTogglesStayCorrect)
{
    for (const char *toggle :
         {"except.windowReservation", "except.handlerFetchPriority",
          "except.relinkSecondaryMiss"}) {
        SimParams params = smallParams(ExceptMech::Multithreaded, 25000);
        params.set(toggle, "0");
        Simulator sim(params, benchmarkWorkloads({"compress"}));
        sim.run();

        uint64_t retired = sim.core().retiredUserInsts(0);
        ArchResult golden = goldenRun(benchmarkParams("compress"),
                                      retired);
        EXPECT_EQ(sim.core().retiredStoreHash(0), golden.storeHash)
            << toggle;
    }
}

TEST(Core, WidthSweepRunsAllPoints)
{
    for (unsigned width : {2u, 4u, 8u}) {
        SimParams params = smallParams(ExceptMech::Traditional, 20000);
        params.core.setWidth(width);
        CoreResult result =
            runSimulation(params, benchmarkWorkloads({"murphi"}));
        EXPECT_GE(result.userInsts, 20000u) << "width " << width;
        EXPECT_LE(result.ipc, double(width)) << "width " << width;
    }
}

TEST(Core, DepthSweepRunsAllPoints)
{
    for (unsigned depth : {3u, 7u, 11u}) {
        SimParams params = smallParams(ExceptMech::Traditional, 20000);
        params.core.setFrontendDepth(depth);
        EXPECT_EQ(params.core.frontendDepth(), depth);
        CoreResult result =
            runSimulation(params, benchmarkWorkloads({"murphi"}));
        EXPECT_GE(result.userInsts, 20000u) << "depth " << depth;
    }
}

TEST(Core, WarmupWindowAccounting)
{
    SimParams params = smallParams(ExceptMech::Traditional, 30000);
    params.warmupInsts = 10000;
    CoreResult result =
        runSimulation(params, benchmarkWorkloads({"compress"}));
    // Retirement is bursty, so the run can overshoot by a few
    // instructions past the budget.
    EXPECT_GE(result.measuredInsts, 20000u);
    EXPECT_LE(result.measuredInsts, 20100u);
    EXPECT_LT(result.measuredCycles, result.cycles);
    EXPECT_LE(result.measuredMisses, result.tlbMisses);
    EXPECT_TRUE(result.warmedUp);
}

TEST(Core, WarmupNeverFinishedReportsNoWindow)
{
    // warmupInsts beyond the retirement budget: measurement never
    // starts. The run is still Ok, but it must say warmedUp=false and
    // report a zero measured window instead of warm-up-skewed numbers.
    SimParams params = smallParams(ExceptMech::Traditional, 20000);
    params.warmupInsts = 100000;
    CoreResult result =
        runSimulation(params, benchmarkWorkloads({"compress"}));
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result.warmedUp);
    EXPECT_EQ(result.measuredInsts, 0u);
    EXPECT_EQ(result.measuredCycles, 0u);
    EXPECT_EQ(result.measuredMisses, 0u);
    EXPECT_EQ(result.ipc, 0.0);
    EXPECT_GE(result.userInsts, 20000u); // the run itself did happen
}


// ---------------------------------------------------------------------
// Pipeline invariants via the statistics interface.
// ---------------------------------------------------------------------

const stats::Distribution *
distribution(const Simulator &sim, const std::string &path)
{
    return dynamic_cast<const stats::Distribution *>(
        sim.statsRoot().find("core." + path));
}

TEST(Invariants, WindowOccupancyNeverExceedsCapacity)
{
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::Hardware}) {
        SimParams params = smallParams(mech, 30000);
        Simulator sim(params, benchmarkWorkloads({"compress"}));
        sim.run();
        const stats::Distribution *occ =
            distribution(sim, "windowOccupancy");
        ASSERT_NE(occ, nullptr);
        EXPECT_LE(occ->maxSample(), double(params.core.windowSize))
            << mechName(mech);
        EXPECT_GT(occ->mean(), 0.0);
    }
}

TEST(Invariants, IssueRateBoundedByWidth)
{
    SimParams params = smallParams(ExceptMech::Traditional, 30000);
    params.core.setWidth(4);
    Simulator sim(params, benchmarkWorkloads({"murphi"}));
    sim.run();
    const stats::StatBase *s = sim.statsRoot().find("core.issuedPerCycle");
    const auto *avg = dynamic_cast<const stats::Average *>(s);
    ASSERT_NE(avg, nullptr);
    EXPECT_LE(avg->mean(), 4.0);
    EXPECT_GT(avg->mean(), 0.5);
}

TEST(Invariants, DumpStateIsWellFormed)
{
    SimParams params = smallParams(ExceptMech::Multithreaded, 5000);
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    sim.run();
    std::ostringstream os;
    sim.core().dumpState(os);
    EXPECT_NE(os.str().find("core state"), std::string::npos);
    EXPECT_NE(os.str().find("window"), std::string::npos);
}

// dumpState is a debugging aid for *live* pipelines: it must render a
// mid-flight machine (speculative instructions in the window, handler
// threads active, walks outstanding) without tripping an assertion,
// for every mechanism — not just the drained post-run state the test
// above covers.
TEST(Invariants, DumpStateMidFlight)
{
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::QuickStart, ExceptMech::Hardware}) {
        SimParams params = smallParams(mech, 30000);
        Simulator sim(params, benchmarkWorkloads({"compress"}));
        // Stop at several depths: mid-warmup, and deep enough that
        // misses (and their handler threads / walks) are in flight.
        for (unsigned target : {50u, 500u, 5000u}) {
            while (sim.core().now() < target)
                sim.core().tick();
            std::ostringstream os;
            sim.core().dumpState(os);
            EXPECT_NE(os.str().find("core state"), std::string::npos)
                << mechName(mech) << " @" << target;
            EXPECT_NE(os.str().find("window"), std::string::npos)
                << mechName(mech) << " @" << target;
        }
    }
}

TEST(Invariants, FetchedAtLeastRetired)
{
    SimParams params = smallParams(ExceptMech::Traditional, 20000);
    Simulator sim(params, benchmarkWorkloads({"vortex"}));
    CoreResult result = sim.run();
    EXPECT_GE(stat(sim, "fetchedInsts"),
              double(result.userInsts) + stat(sim, "retiredPal"));
    // fetched = retired + squashed + still-in-flight.
    EXPECT_GE(stat(sim, "fetchedInsts"),
              double(result.userInsts) + stat(sim, "retiredPal") +
                  stat(sim, "squashedInsts") - 200.0 /* in flight */);
}

TEST(Invariants, TlbHoldsAtMostItsCapacity)
{
    SimParams params = smallParams(ExceptMech::Traditional, 20000);
    params.tlb.dtlbEntries = 8;
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    sim.run();
    EXPECT_LE(sim.core().dtlb().validCount(), 8u);
    EXPECT_GT(stat(sim, "dtlb.evictions"), 0.0);
}

TEST(Invariants, SmallTlbMissesMoreThanLargeTlb)
{
    // Long enough that capacity misses dominate compulsory ones: a
    // 16-entry TLB churns on compress's far pages, while 1024 entries
    // eventually hold the whole footprint.
    SimParams params = smallParams(ExceptMech::Traditional, 150000);
    params.tlb.dtlbEntries = 16;
    CoreResult small_tlb =
        runSimulation(params, benchmarkWorkloads({"compress"}));
    params.tlb.dtlbEntries = 1024;
    CoreResult large_tlb =
        runSimulation(params, benchmarkWorkloads({"compress"}));
    EXPECT_GT(double(small_tlb.tlbMisses),
              1.3 * double(large_tlb.tlbMisses));
}

TEST(Invariants, HandlerDutyCycleIsBounded)
{
    SimParams params = smallParams(ExceptMech::Multithreaded, 60000);
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult result = sim.run();
    double duty = stat(sim, "handlerActiveCycles") / double(result.cycles);
    EXPECT_GT(duty, 0.0);
    EXPECT_LT(duty, 0.9); // the handler context must mostly be idle
}

// ---------------------------------------------------------------------
// Livelock watchdog: RunStatus::Livelock on a *deliberate* livelock.
// ---------------------------------------------------------------------

/**
 * A core on a hand-built program that HALTs after a couple of
 * instructions: it can never retire maxInsts user instructions, so the
 * machine makes no forward progress forever — run() must trip the
 * watchdog and return a structured status instead of hanging.
 */
struct LivelockedCore
{
    static constexpr uint64_t WatchdogCycles = 4000;

    SimParams params;
    PhysMem mem;
    FrameAllocator frames;
    PalCode pal = buildPalCode();
    std::unique_ptr<Process> proc;
    stats::StatGroup root{"sim"};
    std::unique_ptr<SmtCore> core;

    LivelockedCore()
    {
        params.except.mech = ExceptMech::PerfectTlb;
        params.maxInsts = 1000; // unreachable: the program halts first
        params.watchdogCycles = WatchdogCycles;
        for (size_t i = 0; i < pal.prog.size(); ++i)
            mem.write32(pal.prog.base + i * 4, pal.prog.words[i]);

        isa::Assembler a;
        a.addi(1, 31, 1).addi(2, 1, 2).halt();
        ProcessImage image;
        image.text = a.assemble(0x10000);
        image.vaLimit = 0x200000;
        proc = std::make_unique<Process>(image, 1, mem, frames);
        core = std::make_unique<SmtCore>(
            params, std::vector<Process *>{proc.get()}, mem, pal, &root);
    }

    std::string
    dump() const
    {
        std::ostringstream os;
        root.dump(os);
        return os.str();
    }
};

TEST(Livelock, DeliberateLivelockReturnsStructuredStatus)
{
    LivelockedCore machine;
    CoreResult result = machine.core->run();
    ASSERT_EQ(result.status, RunStatus::Livelock);
    EXPECT_NE(result.error.find("livelock"), std::string::npos);
    // The partial result is still populated: the program's few
    // instructions retired, and the watchdog bound was honoured.
    EXPECT_GT(result.userInsts, 0u);
    EXPECT_LT(result.userInsts, 1000u);
    EXPECT_GT(result.cycles, 4000u);
}

TEST(Livelock, IdleSkipTripsWatchdogAtIdenticalCycle)
{
    // Every cycle ticks, so the watchdog trips on the first cycle past
    // its bound, and the partial result is that of a core ticked as
    // many times by hand. (The name is from the idle-skip scheduler
    // this contract replaced.)
    LivelockedCore run;
    CoreResult result = run.core->run();
    ASSERT_EQ(result.status, RunStatus::Livelock);
    EXPECT_EQ(result.cycles, LivelockedCore::WatchdogCycles + 1);

    LivelockedCore ticked;
    for (uint64_t c = 0; c < result.cycles; ++c)
        ticked.core->tick();
    EXPECT_EQ(ticked.core->now(), result.cycles);
    EXPECT_EQ(ticked.core->totalRetiredUser(), result.userInsts);
    EXPECT_EQ(ticked.dump(), run.dump());
}


TEST(CompletionQueue, DrainsInCycleThenPushOrderAcrossGrowth)
{
    // Up to 3 events per cycle. Latencies of 1-200 fit the initial
    // horizon; from cycle 1000 they reach 2000, so the horizon doubles
    // mid-stream while cycles already holding events receive more.
    DynInstPool pool;
    CompletionQueue wheel;
    const size_t initial = wheel.horizon();
    std::mt19937_64 rng(7);
    struct Pushed
    {
        Cycle at;
        SeqNum id;
    };
    std::vector<Pushed> pushed;
    std::vector<SeqNum> drained;
    // Per cycle, the horizon when its first event was pushed.
    std::vector<size_t> firstHorizon;
    unsigned straddled = 0;
    SeqNum id = 0;
    const Cycle last_push = 3000;
    for (Cycle now = 0; now <= last_push + 2000; ++now) {
        wheel.drain(now, [&](const InstPtr &inst) {
            EXPECT_EQ(inst->doneAt, now) << "event " << inst->seq;
            drained.push_back(inst->seq);
        });
        if (now > last_push)
            continue;
        for (uint64_t k = rng() % 4; k > 0; --k) {
            Cycle at = now + 1 + rng() % (now < 1000 ? 200 : 2000);
            InstPtr inst = pool.acquire();
            inst->seq = ++id;
            inst->doneAt = at;
            wheel.push(at, inst);
            pushed.push_back({at, id});
            if (firstHorizon.size() <= at)
                firstHorizon.resize(at + 1, 0);
            if (!firstHorizon[at])
                firstHorizon[at] = wheel.horizon();
            else if (firstHorizon[at] != wheel.horizon())
                ++straddled;
        }
    }
    EXPECT_EQ(wheel.size(), 0u);
    EXPECT_EQ(initial, 256u);
    EXPECT_EQ(wheel.horizon(), 2048u);
    EXPECT_GT(straddled, 0u) << "no cycle took events on both sides of "
                                "a horizon growth";

    std::stable_sort(pushed.begin(), pushed.end(),
                     [](const Pushed &a, const Pushed &b) {
                         return a.at < b.at;
                     });
    ASSERT_EQ(drained.size(), pushed.size());
    for (size_t i = 0; i < pushed.size(); ++i)
        ASSERT_EQ(drained[i], pushed[i].id) << "position " << i;
}

TEST(CompletionQueue, PushesWhileDrainingKeepTheOrder)
{
    // An event pushed for the cycle being drained comes last in it; one
    // a horizon away re-slots the wheel under the drain.
    DynInstPool pool;
    CompletionQueue wheel;
    auto event = [&](SeqNum seq) {
        InstPtr inst = pool.acquire();
        inst->seq = seq;
        return inst;
    };
    wheel.push(1, event(1));
    wheel.push(1, event(2));
    wheel.drain(0, [](const InstPtr &) {});
    std::vector<SeqNum> order;
    wheel.drain(1, [&](const InstPtr &inst) {
        order.push_back(inst->seq);
        if (inst->seq == 1) {
            wheel.push(1 + wheel.horizon(), event(4));
            wheel.push(1, event(3));
        }
    });
    EXPECT_EQ(order, (std::vector<SeqNum>{1, 2, 3}));
    EXPECT_EQ(wheel.horizon(), 512u);
    for (Cycle now = 2; now <= 1 + 256; ++now)
        wheel.drain(now, [&](const InstPtr &inst) {
            order.push_back(inst->seq);
        });
    EXPECT_EQ(order, (std::vector<SeqNum>{1, 2, 3, 4}));
}

TEST(CompletionQueueDeathTest, PushToADrainedCyclePanics)
{
    DynInstPool pool;
    CompletionQueue wheel;
    auto ignore = [](const InstPtr &) {};
    for (Cycle now = 0; now <= 5; ++now)
        wheel.drain(now, ignore);
    EXPECT_DEATH(wheel.push(5, pool.acquire()), "already drained");
    EXPECT_DEATH(wheel.drain(7, ignore), "expected 6");
}

} // anonymous namespace
