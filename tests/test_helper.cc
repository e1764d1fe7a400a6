/**
 * @file
 * Helper-thread micro-services test layer.
 *
 *  - HelperContext lifecycle property/stress: randomized fault
 *    injection (idle-context steals, window squeezes) across many
 *    seeds with the InvariantChecker auditing every cycle, while a
 *    helper service competes for the idle context.
 *  - Checker unit semantics: watchpoints, vector-clock happens-before
 *    races, sync-region acquire/release, range filtering.
 *  - Differential test: the checker's verdicts on seeded racy and
 *    race-free shared-memory guest programs must match an
 *    independently-coded single-threaded reference happens-before
 *    model replaying the identical access trace.
 *  - Prefetcher: cache-level prefetched-line attribution semantics and
 *    an end-to-end IPC/coverage effectiveness check.
 *  - parseMech error enumerates the accepted mechanism names.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/helper.hh"
#include "helpers/checker.hh"
#include "helpers/prefetch.hh"
#include "mem/cache.hh"
#include "sim/simulator.hh"
#include "verify/diffcheck.hh"

namespace
{

using namespace zmt;

double
stat(const Simulator &sim, const std::string &path)
{
    const stats::StatBase *s = sim.statsRoot().find("core." + path);
    if (auto *scalar = dynamic_cast<const stats::Scalar *>(s))
        return scalar->value();
    return -1.0;
}

// ---------------------------------------------------------------------
// parseMech: the error must enumerate the accepted values.
// ---------------------------------------------------------------------

TEST(ParseMechDeathTest, UnknownNameListsAcceptedValues)
{
    EXPECT_EXIT(parseMech("bogus"), ::testing::ExitedWithCode(1),
                "perfect.*traditional.*multithreaded.*quickstart.*"
                "hardware");
}

TEST(ParseMech, AcceptsAllDocumentedSpellings)
{
    EXPECT_EQ(parseMech("perfect"), ExceptMech::PerfectTlb);
    EXPECT_EQ(parseMech("perfecttlb"), ExceptMech::PerfectTlb);
    EXPECT_EQ(parseMech("traditional"), ExceptMech::Traditional);
    EXPECT_EQ(parseMech("trap"), ExceptMech::Traditional);
    EXPECT_EQ(parseMech("multithreaded"), ExceptMech::Multithreaded);
    EXPECT_EQ(parseMech("mt"), ExceptMech::Multithreaded);
    EXPECT_EQ(parseMech("quickstart"), ExceptMech::QuickStart);
    EXPECT_EQ(parseMech("qs"), ExceptMech::QuickStart);
    EXPECT_EQ(parseMech("hardware"), ExceptMech::Hardware);
    EXPECT_EQ(parseMech("hw"), ExceptMech::Hardware);
}

// ---------------------------------------------------------------------
// Checker unit semantics (synthetic observe() streams).
// ---------------------------------------------------------------------

HelperParams
checkerParams()
{
    HelperParams hp;
    hp.checker = true;
    hp.checkBase = 0x1000;
    hp.checkLen = 0x1000;
    hp.watchBase = 0x3000;
    hp.watchLen = 0x100;
    hp.syncBase = 0x5000;
    hp.syncLen = 0x100;
    return hp;
}

TEST(CheckerUnit, WatchpointFiresOnEveryAccessInRange)
{
    HelperParams hp = checkerParams();
    CheckerHelper chk(hp, 2, nullptr);
    EXPECT_EQ(chk.observe(0, 0x3008, 0x13008, false, 1),
              CheckerHelper::WatchHit);
    // Watch accesses are data accesses too: t1's unsynchronized write
    // to the cell t0 read is a watch hit AND a race.
    EXPECT_EQ(chk.observe(1, 0x3008, 0x13008, true, 2),
              CheckerHelper::WatchHit | CheckerHelper::RaceFound);
    EXPECT_EQ(chk.observe(0, 0x3100, 0x13100, true, 3),
              CheckerHelper::None); // one past the range
    EXPECT_EQ(chk.watchpointHits.value(), 2.0);
    ASSERT_EQ(chk.watchHits().size(), 2u);
    EXPECT_EQ(chk.watchHits()[1].tid, 1);
    EXPECT_TRUE(chk.watchHits()[1].isWrite);
}

TEST(CheckerUnit, UnsynchronizedConflictIsARace)
{
    HelperParams hp = checkerParams();
    CheckerHelper chk(hp, 2, nullptr);
    EXPECT_EQ(chk.observe(0, 0x1000, 0x11000, true, 1),
              CheckerHelper::None);
    // t1 load of the cell t0 wrote, no intervening synchronization.
    EXPECT_EQ(chk.observe(1, 0x1000, 0x11000, false, 2),
              CheckerHelper::RaceFound);
    // write-write on another cell races too.
    chk.observe(0, 0x1040, 0x11040, true, 3);
    EXPECT_EQ(chk.observe(1, 0x1040, 0x11040, true, 4),
              CheckerHelper::RaceFound);
    // read-read never races.
    chk.observe(0, 0x1080, 0x11080, false, 5);
    EXPECT_EQ(chk.observe(1, 0x1080, 0x11080, false, 6),
              CheckerHelper::None);
    EXPECT_EQ(chk.racesDetected.value(), 2.0);
    ASSERT_EQ(chk.races().size(), 2u);
    EXPECT_EQ(chk.races()[0].tid, 1);
    EXPECT_EQ(chk.races()[0].other, 0);
    EXPECT_EQ(chk.races()[0].va, 0x1000u);
}

TEST(CheckerUnit, SyncReleaseAcquireOrdersTheThreads)
{
    HelperParams hp = checkerParams();
    CheckerHelper chk(hp, 2, nullptr);
    // t0: data write, then release the sync cell.
    chk.observe(0, 0x1000, 0x11000, true, 1);
    chk.observe(0, 0x5000, 0x15000, true, 2); // release (store)
    // t1: acquire the same sync cell, then touch the data — ordered.
    chk.observe(1, 0x5000, 0x15000, false, 3); // acquire (load)
    EXPECT_EQ(chk.observe(1, 0x1000, 0x11000, false, 4),
              CheckerHelper::None);
    EXPECT_EQ(chk.observe(1, 0x1000, 0x11000, true, 5),
              CheckerHelper::None);
    EXPECT_EQ(chk.syncReleases.value(), 1.0);
    EXPECT_EQ(chk.syncAcquires.value(), 1.0);
    EXPECT_EQ(chk.racesDetected.value(), 0.0);

    // A later t0 write without a new release/acquire round races with
    // t1's writes again: synchronization is not retroactive.
    EXPECT_EQ(chk.observe(0, 0x1000, 0x11000, true, 6),
              CheckerHelper::RaceFound);
}

TEST(CheckerUnit, SameThreadNeverRacesWithItself)
{
    HelperParams hp = checkerParams();
    CheckerHelper chk(hp, 2, nullptr);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(chk.observe(0, 0x1000, 0x11000, i % 2 == 0, i),
                  CheckerHelper::None);
    EXPECT_EQ(chk.racesDetected.value(), 0.0);
}

TEST(CheckerUnit, OutOfRangeAccessesAreFilteredButTraced)
{
    HelperParams hp = checkerParams();
    hp.traceCap = 2;
    CheckerHelper chk(hp, 2, nullptr);
    EXPECT_EQ(chk.observe(0, 0x9000, 0x19000, true, 1),
              CheckerHelper::None);
    EXPECT_EQ(chk.filtered.value(), 1.0);
    EXPECT_EQ(chk.observed.value(), 0.0);
    // The raw trace records ahead of filtering, bounded by traceCap.
    chk.observe(0, 0x9008, 0x19008, false, 2);
    EXPECT_FALSE(chk.traceOverflowed());
    chk.observe(0, 0x9010, 0x19010, false, 3);
    EXPECT_TRUE(chk.traceOverflowed());
    EXPECT_EQ(chk.trace().size(), 2u);
}

// ---------------------------------------------------------------------
// Cache prefetched-line attribution.
// ---------------------------------------------------------------------

TEST(CachePrefetch, FirstDemandUseIsAttributedExactlyOnce)
{
    Cache cache("l1d", 64, 2, 64, 0, 1, 8, nullptr, nullptr, 80,
                nullptr);
    const Addr pa = 0x4000;

    // Untouched line: nothing to consume.
    EXPECT_EQ(cache.consumePrefetched(pa, 0), Cache::PrefetchHit::None);

    Cycle done = cache.prefetch(pa, 0);
    EXPECT_GT(done, 0u); // it missed and fetched from memory
    // Demand use while the fill is still in flight: Late.
    EXPECT_EQ(cache.consumePrefetched(pa, 1), Cache::PrefetchHit::Late);
    // The flag is consumed: second use reports nothing.
    EXPECT_EQ(cache.consumePrefetched(pa, 1), Cache::PrefetchHit::None);

    // A second prefetch to a resident line is a no-op (no tagging).
    EXPECT_EQ(cache.prefetch(pa, done + 1), done + 1);
    EXPECT_EQ(cache.consumePrefetched(pa, done + 1),
              Cache::PrefetchHit::None);

    // Fresh block, consumed after the fill arrived: Ready.
    const Addr pa2 = 0x8000;
    Cycle done2 = cache.prefetch(pa2, 0);
    EXPECT_EQ(cache.consumePrefetched(pa2, done2 + 10),
              Cache::PrefetchHit::Ready);

    // Demand-installed lines never report as prefetched.
    const Addr pa3 = 0xc000;
    cache.access(pa3, false, 0);
    EXPECT_EQ(cache.consumePrefetched(pa3, 1000),
              Cache::PrefetchHit::None);
}

// ---------------------------------------------------------------------
// HelperContext lifecycle property/stress: randomized interleavings of
// exception spawns, injected idle-context steals and window squeezes,
// with invariant audits every cycle and the prefetch service competing
// for the same idle context. 200+ seeds.
// ---------------------------------------------------------------------

TEST(HelperLifecycleStress, AuditsCleanAcrossSeedsUnderInjection)
{
    uint64_t totalPreempts = 0;
    uint64_t totalFallbacks = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        SimParams params;
        params.except.mech = (seed % 2 == 0) ? ExceptMech::Multithreaded
                                             : ExceptMech::QuickStart;
        params.except.idleThreads = 1;
        params.maxInsts = 4000;
        params.verify.seed = seed;
        params.verify.invariantPeriod = 1; // audit every cycle
        params.verify.stealIdleProb = 0.4;
        params.verify.squeezePeriod = 300;
        params.verify.squeezeDuration = 100;
        params.verify.squeezeWindowTo = 24;
        params.helper.prefetch = true;

        Simulator sim(params, benchmarkWorkloads({"compress"}));
        CoreResult result = sim.run();
        ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                                 << result.error;
        DiffResult diff = diffAgainstGolden(sim);
        ASSERT_TRUE(diff.ok()) << "seed " << seed << ": "
                               << diff.summary();

        totalPreempts += sim.core().helperMgr().servicePreemptCount();
        totalFallbacks += uint64_t(stat(sim, "mtFallbacks"));
        // Whatever happened, the borrow must be consistent at the end.
        ThreadID svc = sim.core().helperMgr().serviceContext();
        if (params.helper.anyEnabled()) {
            EXPECT_NE(svc, InvalidThreadID) << "seed " << seed;
        }
    }
    // The campaign as a whole must have exercised the contended paths.
    EXPECT_GT(totalPreempts, 0u) << "no spawn ever preempted a borrow";
    EXPECT_GT(totalFallbacks, 0u) << "no injected steal forced fallback";
}

// ---------------------------------------------------------------------
// Differential checker test: an independently-coded single-threaded
// reference happens-before model replays the checker's raw access
// trace; verdicts must match exactly.
// ---------------------------------------------------------------------

/** Reference model: textbook vector clocks over the same trace. Kept
 *  deliberately separate from CheckerHelper's implementation (maps of
 *  per-cell per-thread epochs instead of VClock structs). */
struct RefModel
{
    unsigned n;
    std::vector<std::vector<uint64_t>> clock; // clock[t][u]
    std::map<Addr, std::vector<uint64_t>> lockClock;
    std::map<std::pair<Addr, unsigned>, uint64_t> lastWrite, lastRead;
    std::vector<CheckerHelper::Race> races;

    explicit RefModel(unsigned num_threads) : n(num_threads)
    {
        clock.assign(n, std::vector<uint64_t>(n, 0));
        for (unsigned t = 0; t < n; ++t)
            clock[t][t] = 1;
    }

    static bool
    in(Addr va, uint64_t base, uint64_t len)
    {
        return len > 0 && va >= base && va < base + len;
    }

    void
    feed(const HelperParams &hp, const CheckerHelper::Access &a)
    {
        unsigned t = unsigned(a.tid);
        bool tracked = hp.checkLen == 0 ||
                       in(a.va, hp.checkBase, hp.checkLen) ||
                       in(a.va, hp.watchBase, hp.watchLen) ||
                       in(a.va, hp.syncBase, hp.syncLen);
        if (!tracked)
            return;
        if (in(a.va, hp.syncBase, hp.syncLen)) {
            auto &lk = lockClock
                           .try_emplace(a.va & ~Addr(7),
                                        std::vector<uint64_t>(n, 0))
                           .first->second;
            if (a.isWrite) {
                for (unsigned u = 0; u < n; ++u)
                    lk[u] = std::max(lk[u], clock[t][u]);
                ++clock[t][t];
            } else {
                for (unsigned u = 0; u < n; ++u)
                    clock[t][u] = std::max(clock[t][u], lk[u]);
            }
            return;
        }
        Addr cell = a.pa & ~Addr(7);
        for (unsigned u = 0; u < n; ++u) {
            if (u == t)
                continue;
            auto w = lastWrite.find({cell, u});
            auto r = lastRead.find({cell, u});
            bool conflict =
                (w != lastWrite.end() && w->second > clock[t][u]) ||
                (a.isWrite && r != lastRead.end() &&
                 r->second > clock[t][u]);
            if (conflict) {
                races.push_back({a.tid, ThreadID(u), a.va, a.isWrite,
                                 a.cycle});
                break;
            }
        }
        if (a.isWrite)
            lastWrite[{cell, t}] = clock[t][t];
        else
            lastRead[{cell, t}] = clock[t][t];
    }
};

SimParams
checkerSimParams()
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 1;
    params.maxInsts = 60000;
    params.helper.checker = true;
    params.helper.checkBase = 0x4000000; // the shared region
    params.helper.checkLen = 1u << 14;
    return params;
}

std::vector<WorkloadParams>
raceWorkloads(unsigned slice_count)
{
    std::vector<WorkloadParams> ws =
        benchmarkWorkloads({"racetest", "racetest"});
    for (unsigned i = 0; i < ws.size(); ++i) {
        ws[i].sliceCount = slice_count;
        ws[i].sliceIndex = slice_count > 0 ? i : 0;
    }
    return ws;
}

TEST(CheckerDifferential, RacyProgramMatchesReferenceModel)
{
    SimParams params = checkerSimParams();
    Simulator sim(params, raceWorkloads(0)); // both roam: racy
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok()) << result.error;

    const CheckerHelper *chk = sim.core().helperMgr().checker();
    ASSERT_NE(chk, nullptr);
    ASSERT_FALSE(chk->traceOverflowed())
        << "trace overflow would desynchronize the reference replay";
    EXPECT_GT(chk->races().size(), 0u)
        << "seeded racy workload produced no races";

    RefModel ref(unsigned(sim.core().contextCount()));
    for (const CheckerHelper::Access &a : chk->trace())
        ref.feed(params.helper, a);

    // Verdict-for-verdict equality: every seeded race the reference
    // finds is flagged (100% detection), and nothing else is (0 false
    // positives).
    ASSERT_EQ(chk->races().size(), ref.races.size());
    for (size_t i = 0; i < ref.races.size(); ++i) {
        EXPECT_EQ(chk->races()[i].tid, ref.races[i].tid) << i;
        EXPECT_EQ(chk->races()[i].other, ref.races[i].other) << i;
        EXPECT_EQ(chk->races()[i].va, ref.races[i].va) << i;
        EXPECT_EQ(chk->races()[i].onWrite, ref.races[i].onWrite) << i;
        EXPECT_EQ(chk->races()[i].cycle, ref.races[i].cycle) << i;
    }
}

TEST(CheckerDifferential, DisjointSlicesAreRaceFree)
{
    SimParams params = checkerSimParams();
    Simulator sim(params, raceWorkloads(2)); // disjoint halves
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok()) << result.error;

    const CheckerHelper *chk = sim.core().helperMgr().checker();
    ASSERT_NE(chk, nullptr);
    EXPECT_GT(chk->observed.value(), 0.0) << "no shared traffic seen";
    EXPECT_EQ(chk->races().size(), 0u)
        << "false positive on a race-free program";

    RefModel ref(unsigned(sim.core().contextCount()));
    for (const CheckerHelper::Access &a : chk->trace())
        ref.feed(params.helper, a);
    EXPECT_EQ(ref.races.size(), 0u);
}

// ---------------------------------------------------------------------
// Prefetcher effectiveness: measurable IPC gain and nonzero coverage on
// the pointer-chasing fig5 workload.
// ---------------------------------------------------------------------

TEST(PrefetchHelper, ImprovesDeltablueIpc)
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 1;
    params.maxInsts = 30000;

    Simulator off(params, benchmarkWorkloads({"deltablue"}));
    CoreResult roff = off.run();
    ASSERT_TRUE(roff.ok()) << roff.error;

    params.helper.prefetch = true;
    Simulator on(params, benchmarkWorkloads({"deltablue"}));
    CoreResult ron = on.run();
    ASSERT_TRUE(ron.ok()) << ron.error;

    EXPECT_GT(ron.ipc, roff.ipc * 1.05)
        << "prefetch helper gave no measurable IPC delta (off="
        << roff.ipc << " on=" << ron.ipc << ")";
    EXPECT_GT(stat(on, "helper.prefetch.usefulReady"), 0.0);
    EXPECT_GT(stat(on, "helper.serviceBorrows"), 0.0);
}

TEST(PrefetchHelper, RunsUnderMechanismsWithoutIdleThreads)
{
    // traditional has no handler threads; the helper layer creates the
    // context its services borrow.
    SimParams params;
    params.except.mech = ExceptMech::Traditional;
    params.maxInsts = 20000;
    params.helper.prefetch = true;

    Simulator sim(params, benchmarkWorkloads({"deltablue"}));
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_GT(stat(sim, "helper.serviceBorrows"), 0.0);
    EXPECT_GT(stat(sim, "helper.prefetch.probes"), 0.0);
}

} // anonymous namespace
