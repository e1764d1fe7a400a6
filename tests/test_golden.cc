/**
 * @file
 * Golden-run determinism tests: fixed-seed end-to-end runs for every
 * exception mechanism pinned by an exact FNV-1a checksum over the full
 * StatGroup dump. Any refactor that claims to be architecturally
 * invisible (the DynInst pool, the window counter, future hot-path
 * work) is proven stat-identical here instead of eyeballed: a checksum
 * mismatch means some stat — cycles, misses, occupancy histograms,
 * attribution — moved.
 *
 * When a change *intends* to alter the stats (new counter, new
 * behaviour), the failure message prints the new checksum to paste
 * into the table below; that makes stat changes explicit in review.
 *
 * Also here: jobs=1 vs jobs=8 sweep equality (scheduling must never
 * leak into results) and run() vs hand-ticked dump equality (run() is
 * a tick every cycle plus the watchdog, nothing more).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/simulator.hh"

namespace
{

using namespace zmt;

uint64_t
fnv1a(const std::string &s)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The pinned configuration: everything that affects the run is fixed
 *  here — bump GoldenInsts or the params and every checksum changes. */
constexpr uint64_t GoldenInsts = 25000;

SimParams
goldenParams(ExceptMech mech)
{
    SimParams params;
    params.maxInsts = GoldenInsts;
    params.except.mech = mech;
    params.except.idleThreads = 1;
    return params;
}

std::string
dumpOf(const Simulator &sim)
{
    std::ostringstream os;
    sim.dumpStats(os);
    return os.str();
}

std::string
statDump(const SimParams &params,
         const std::vector<WorkloadParams> &workloads)
{
    Simulator sim(params, workloads);
    CoreResult result = sim.run();
    EXPECT_TRUE(result.ok()) << params.summary() << ": " << result.error;
    return dumpOf(sim);
}

std::string
statDump(ExceptMech mech)
{
    return statDump(goldenParams(mech), {benchmarkParams("compress")});
}

/**
 * run() is a tick every cycle plus the watchdog: its full stat dump
 * equals that of an identical Simulator whose core is ticked
 * result.cycles times by hand, and it stops on the first cycle at which
 * every app thread has retired its share of maxInsts.
 */
void
expectRunMatchesHandTicks(const SimParams &params,
                          const std::vector<WorkloadParams> &workloads,
                          const std::string &name)
{
    Simulator sim(params, workloads);
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok()) << name << ": " << result.error;

    Simulator ticked(params, workloads);
    for (uint64_t c = 0; c + 1 < result.cycles; ++c)
        ticked.core().tick();
    const uint64_t quota = params.maxInsts / workloads.size();
    bool all_reached = true;
    for (unsigned app = 0; app < workloads.size(); ++app)
        all_reached = all_reached &&
                      ticked.core().retiredUserInsts(app) >= quota;
    EXPECT_FALSE(all_reached) << name << ": run() went past its quota";
    ticked.core().tick();
    EXPECT_EQ(ticked.core().now(), result.cycles);
    EXPECT_EQ(ticked.core().totalRetiredUser(), result.userInsts);
    EXPECT_EQ(dumpOf(sim), dumpOf(ticked))
        << name << ": run() differs from ticking every cycle";
}

std::string
hexChecksum(uint64_t checksum)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  (unsigned long long)checksum);
    return buf;
}

// ---------------------------------------------------------------------
// Exact checksums, all mechanisms.
// ---------------------------------------------------------------------

struct GoldenPoint
{
    ExceptMech mech;
    uint64_t checksum;
};

// Pinned on the fixed-seed compress workload at GoldenInsts. Regenerate
// by running this test: a mismatch prints the actual checksum.
const GoldenPoint goldenTable[] = {
    {ExceptMech::PerfectTlb, 0x994a76c7cf62a851ULL},
    {ExceptMech::Traditional, 0x70b5c04af7ae5ae5ULL},
    {ExceptMech::Multithreaded, 0xf710b2a2d8050942ULL},
    {ExceptMech::QuickStart, 0x7ceb7bc9dff35c7dULL},
    {ExceptMech::Hardware, 0xd6686576c9b69c45ULL},
};

class GoldenRunTest : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(GoldenRunTest, StatDumpChecksumMatches)
{
    const GoldenPoint &point = GetParam();
    std::string dump = statDump(point.mech);
    ASSERT_GT(dump.size(), 1000u); // a real, full dump — not a stub
    uint64_t actual = fnv1a(dump);
    EXPECT_EQ(actual, point.checksum)
        << mechName(point.mech) << " stat dump changed; if intended, "
        << "update goldenTable to {..., " << hexChecksum(actual) << "ULL}";
}

TEST_P(GoldenRunTest, RepeatedRunsAreDeterministic)
{
    const GoldenPoint &point = GetParam();
    EXPECT_EQ(statDump(point.mech), statDump(point.mech));
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, GoldenRunTest, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// Paths the single-app table above does not reach: a three-app SMT mix
// with an idle context (window slots and ready-list inserts interleaved
// across threads), each Table 3 limit toggle under multithreaded(3)
// (freeWindowSlot accounting; instantHandlerFetch dispatches in the
// middle of the issue scan), and the instruction-emulation exception.
// ---------------------------------------------------------------------

struct GoldenPath
{
    const char *name;
    ExceptMech mech;
    unsigned idleThreads;
    std::vector<std::string> benches;
    void (*configure)(SimParams &); //!< null: defaults
    unsigned fsqrtOps;              //!< FSQRTs added per loop body
    uint64_t checksum;
};

SimParams
pathParams(const GoldenPath &path)
{
    SimParams params = goldenParams(path.mech);
    params.except.idleThreads = path.idleThreads;
    if (path.configure)
        path.configure(params);
    return params;
}

std::vector<WorkloadParams>
pathWorkloads(const GoldenPath &path)
{
    std::vector<WorkloadParams> workloads;
    for (const auto &bench : path.benches) {
        workloads.push_back(benchmarkParams(bench));
        workloads.back().fsqrtOps = path.fsqrtOps;
    }
    return workloads;
}

const std::vector<std::string> MixAdmCmpVor = {"alphadoom", "compress",
                                               "vortex"};

// Pinned like goldenTable; a mismatch prints the actual checksum.
const GoldenPath goldenPaths[] = {
    {"MixTraditional", ExceptMech::Traditional, 1, MixAdmCmpVor, nullptr,
     0, 0x5aba6b469824be3cULL},
    {"MixMultithreaded", ExceptMech::Multithreaded, 1, MixAdmCmpVor,
     nullptr, 0, 0xbafc8ea57d598624ULL},
    {"Mt3FreeHandlerWindow", ExceptMech::Multithreaded, 3, {"compress"},
     [](SimParams &p) { p.except.freeHandlerWindow = true; }, 0,
     0xdb000b9892cef4b2ULL},
    {"Mt3FreeHandlerExecBw", ExceptMech::Multithreaded, 3, {"compress"},
     [](SimParams &p) { p.except.freeHandlerExecBw = true; }, 0,
     0xf7e533ad1a6d73faULL},
    {"Mt3FreeHandlerFetchBw", ExceptMech::Multithreaded, 3, {"compress"},
     [](SimParams &p) { p.except.freeHandlerFetchBw = true; }, 0,
     0xbcf101b4a90212d1ULL},
    {"Mt3InstantHandlerFetch", ExceptMech::Multithreaded, 3, {"compress"},
     [](SimParams &p) { p.except.instantHandlerFetch = true; }, 0,
     0x1257bebd77c8b7eeULL},
    {"MtEmulateFsqrt", ExceptMech::Multithreaded, 1, {"compress"},
     [](SimParams &p) { p.except.emulateFsqrt = true; }, 1,
     0x3624f31a5b827e3dULL},
};

class GoldenPathTest : public ::testing::TestWithParam<GoldenPath>
{};

TEST_P(GoldenPathTest, StatDumpChecksumMatches)
{
    const GoldenPath &path = GetParam();
    uint64_t actual = fnv1a(statDump(pathParams(path), pathWorkloads(path)));
    EXPECT_EQ(actual, path.checksum)
        << path.name << " stat dump changed; if intended, update "
        << "goldenPaths to {..., " << hexChecksum(actual) << "ULL}";
}

// Named after the idle-skip scheduler this contract replaced, like
// IdleSkipTest below.
TEST_P(GoldenPathTest, DumpIdenticalWithIdleSkipOff)
{
    const GoldenPath &path = GetParam();
    expectRunMatchesHandTicks(pathParams(path), pathWorkloads(path),
                              path.name);
}

INSTANTIATE_TEST_SUITE_P(
    SmtLimitAndEmulation, GoldenPathTest, ::testing::ValuesIn(goldenPaths),
    [](const ::testing::TestParamInfo<GoldenPath> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Fast-forwarded and sampled runs: the functional engine (superblock
// replay and the warm-state trace) decides where the detailed core
// starts and what it finds resident, so a change to the interpreter or
// to the warm-state LRU order moves these checksums.
// ---------------------------------------------------------------------

struct GoldenFfwd
{
    ExceptMech mech;
    uint64_t ffwdDumpChecksum; //!< stat dump after ffwd.insts + warm
    uint64_t sampledChecksum;  //!< sampled run's CoreResult fields
};

std::string
ffwdStatDump(ExceptMech mech)
{
    SimParams params = goldenParams(mech);
    params.ffwd.insts = 300000;
    params.ffwd.warm = true;
    return statDump(params, {benchmarkParams("compress")});
}

/** cycles, userInsts, sampling.ffwdInsts and the bits of the means. */
std::string
sampledResultKey(ExceptMech mech)
{
    SimParams params = goldenParams(mech);
    params.maxInsts = 400000;
    params.sample.periodInsts = 40000;
    params.sample.detailInsts = 4000;
    params.sample.warmupInsts = 1000;
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    CoreResult r = sim.run();
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.sampling.samples, 10u);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%llu|%llu|%llu|%016llx|%016llx|%016llx",
                  (unsigned long long)r.cycles,
                  (unsigned long long)r.userInsts,
                  (unsigned long long)r.sampling.ffwdInsts,
                  (unsigned long long)std::bit_cast<uint64_t>(
                      r.sampling.ipcMean),
                  (unsigned long long)std::bit_cast<uint64_t>(
                      r.sampling.ipcCi95),
                  (unsigned long long)std::bit_cast<uint64_t>(
                      r.sampling.mpkMean));
    return buf;
}

// Pinned like goldenTable; a mismatch prints the actual checksum.
const GoldenFfwd goldenFfwd[] = {
    {ExceptMech::Traditional, 0x6c7e29dda5faf9d6ULL, 0x6ceb466c7d37fcc8ULL},
    {ExceptMech::Multithreaded, 0x02d36d4dc30bd368ULL,
     0x17851f6875f40fe5ULL},
};

class GoldenFfwdTest : public ::testing::TestWithParam<GoldenFfwd>
{};

TEST_P(GoldenFfwdTest, FastForwardedStatDumpChecksumMatches)
{
    const GoldenFfwd &point = GetParam();
    uint64_t actual = fnv1a(ffwdStatDump(point.mech));
    EXPECT_EQ(actual, point.ffwdDumpChecksum)
        << mechName(point.mech) << " fast-forwarded stat dump changed; "
        << "if intended, update goldenFfwd to {..., "
        << hexChecksum(actual) << "ULL, ...}";
}

TEST_P(GoldenFfwdTest, SampledResultChecksumMatches)
{
    const GoldenFfwd &point = GetParam();
    std::string key = sampledResultKey(point.mech);
    uint64_t actual = fnv1a(key);
    EXPECT_EQ(actual, point.sampledChecksum)
        << mechName(point.mech) << " sampled result changed (" << key
        << "); if intended, update goldenFfwd to {..., "
        << hexChecksum(actual) << "ULL}";
}

INSTANTIATE_TEST_SUITE_P(
    FastForwardAndSampling, GoldenFfwdTest, ::testing::ValuesIn(goldenFfwd),
    [](const ::testing::TestParamInfo<GoldenFfwd> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// run() adds nothing to the tick loop: the *entire* stat dump — cycles,
// every histogram bucket, every derived rate — is byte identical to a
// core ticked by hand for as many cycles. (The suite keeps the name of
// the idle-skip scheduler this contract replaced.)
// ---------------------------------------------------------------------

class IdleSkipTest : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(IdleSkipTest, DumpIdenticalWithIdleSkipOff)
{
    ExceptMech mech = GetParam().mech;
    expectRunMatchesHandTicks(goldenParams(mech),
                              {benchmarkParams("compress")},
                              mechName(mech));
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, IdleSkipTest, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// Helper-layer lock-down: with helper.* disabled (the default, which
// goldenParams() uses), the refactored context lifecycle must leave no
// trace whatsoever in the stat dump — no helper stat group, and (via
// the checksums above) not a single counter moved relative to the
// pre-refactor seed.
// ---------------------------------------------------------------------

class HelperDisabledTest : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(HelperDisabledTest, DisabledHelpersLeaveNoStatTrace)
{
    std::string dump = statDump(GetParam().mech);
    EXPECT_EQ(dump.find("helper."), std::string::npos)
        << mechName(GetParam().mech)
        << ": disabled helper layer leaked stats into the dump";
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, HelperDisabledTest, ::testing::ValuesIn(goldenTable),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(mechName(info.param.mech));
    });

// ---------------------------------------------------------------------
// Sweep scheduling must never leak into results: a jobs=8 sweep
// returns bit-identical cells, in submission order, to a jobs=1 sweep.
// ---------------------------------------------------------------------

std::string
coreResultKey(const CoreResult &r)
{
    std::ostringstream os;
    os << runStatusName(r.status) << '|' << r.error << '|' << r.cycles
       << '|' << r.userInsts << '|' << r.tlbMisses << '|'
       << r.emulations << '|' << r.measuredCycles << '|'
       << r.measuredInsts << '|' << r.measuredMisses << '|'
       << std::hexfloat << r.ipc;
    return os.str();
}

TEST(GoldenSweep, SerialAndParallelSweepsAreBitIdentical)
{
    std::vector<SweepJob> jobs;
    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded,
          ExceptMech::QuickStart, ExceptMech::Hardware}) {
        SimParams params = goldenParams(mech);
        params.maxInsts = 12000;
        jobs.emplace_back(params, benchmarkWorkloads({"compress"}),
                          std::string("golden/") + mechName(mech));
    }

    std::vector<CampaignOutcome> serial =
        CampaignRunner(CampaignOptions{}, 1).run(jobs);
    std::vector<CampaignOutcome> parallel =
        CampaignRunner(CampaignOptions{}, 8).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const PenaltyResult &a = serial[i].outcome.result;
        const PenaltyResult &b = parallel[i].outcome.result;
        EXPECT_EQ(serial[i].state, CellState::Done) << jobs[i].label;
        EXPECT_EQ(parallel[i].state, CellState::Done) << jobs[i].label;
        EXPECT_EQ(coreResultKey(a.mech), coreResultKey(b.mech))
            << jobs[i].label;
        EXPECT_EQ(coreResultKey(a.perfect), coreResultKey(b.perfect))
            << jobs[i].label;
    }
}

} // anonymous namespace
