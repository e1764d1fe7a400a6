/**
 * @file
 * DynInst pool-allocator stress tests. The pool recycles instructions
 * at retire/squash through an intrusive refcount, so the properties
 * worth torturing are lifetime properties: under alternating
 * squash-storm / retire-drain phases (driven by the verify
 * fault-injection knobs) every acquired instruction must come back,
 * the slab footprint must stay bounded by in-flight state (recycled,
 * not leaked), and teardown must find a fully drained pool — ~SmtCore
 * panics if liveCount() != 0, so simply destroying the simulator at
 * the end of each test *is* the leak assertion. CI runs this binary
 * under ASan/UBSan and TSan (see .github/workflows/ci.yml), which
 * turns any use-after-recycle into a hard failure.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace
{

using namespace zmt;

/**
 * A squash-heavy configuration: the periodic window squeeze alternates
 * the machine between drain phases (window forced down to 16 slots,
 * deadlock-avoidance tail squashes) and refill phases, while the
 * probabilistic injectors keep the multithreaded rare paths (HARDEXC
 * reversion, no-idle fallback, secondary-miss relink, handler
 * cancellation) firing. Everything is seeded — reruns are identical.
 */
SimParams
stormParams(ExceptMech mech, uint64_t insts)
{
    SimParams params;
    params.maxInsts = insts;
    params.except.mech = mech;
    params.except.idleThreads = 1;
    params.verify.invariantPeriod = 512;
    params.verify.squeezePeriod = 600;
    params.verify.squeezeDuration = 250;
    params.verify.squeezeWindowTo = 16;
    if (params.except.usesHandlerThread()) {
        params.verify.badPteProb = 0.05;
        params.verify.stealIdleProb = 0.2;
        params.verify.forceSecondaryMissProb = 0.05;
        params.verify.handlerSquashPeriod = 900;
    }
    return params;
}

const ExceptMech AllMechs[] = {
    ExceptMech::Traditional, ExceptMech::Multithreaded,
    ExceptMech::QuickStart, ExceptMech::Hardware};

TEST(PoolStress, SquashStormRecyclesInsteadOfLeaking)
{
    for (ExceptMech mech : AllMechs) {
        Simulator sim(stormParams(mech, 30000),
                      benchmarkWorkloads({"gcc"}));
        CoreResult result = sim.run();
        EXPECT_TRUE(result.ok())
            << mechName(mech) << ": " << result.error;

        const DynInstPool &pool = sim.core().instPool();
        // Recycling bound: tens of thousands of instructions were
        // fetched (and a storm's worth squashed), but the slab
        // footprint may only cover peak in-flight state — window,
        // fetch buffers and completion slack — not the fetch stream.
        EXPECT_GT(pool.capacity(), 0u);
        EXPECT_LE(pool.liveCount(), pool.capacity());
        EXPECT_LT(pool.capacity(), 8192u)
            << mechName(mech) << ": pool grew with the fetch stream";
    } // ~Simulator: ~SmtCore panics unless the pool drains to zero
}

TEST(PoolStress, TeardownMidFlightDrainsToZero)
{
    // Destroy the simulator while instructions are still in flight
    // (livelocked run aborted by the watchdog, window still full):
    // teardown must release every window/fetch/completion reference
    // and the pool's own panic_if(liveCount != 0) must stay quiet.
    for (ExceptMech mech : AllMechs) {
        SimParams params = stormParams(mech, 5'000'000);
        params.watchdogCycles = 12000; // abort mid-storm, mid-flight
        auto sim = std::make_unique<Simulator>(
            params, benchmarkWorkloads({"gcc"}));
        CoreResult result = sim->run();
        ASSERT_EQ(result.status, RunStatus::Livelock)
            << mechName(mech) << ": " << result.error;
        EXPECT_GT(sim->core().instPool().liveCount(), 0u)
            << mechName(mech)
            << ": expected in-flight instructions at the watchdog stop";
        sim.reset(); // the leak assertion: panics on a nonzero pool
    }
}

TEST(PoolStress, RepeatedStormsAreDeterministic)
{
    auto run = [] {
        Simulator sim(stormParams(ExceptMech::Multithreaded, 20000),
                      benchmarkWorkloads({"gcc"}));
        CoreResult result = sim.run();
        EXPECT_TRUE(result.ok()) << result.error;
        return std::tuple(result.cycles, result.tlbMisses,
                          sim.core().instPool().capacity());
    };
    EXPECT_EQ(run(), run());
}

} // anonymous namespace
