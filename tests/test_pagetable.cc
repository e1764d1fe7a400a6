/**
 * @file
 * The functional page-table shadow (kernel/pagetable.hh). After full
 * runs — every mechanism, fault injection, the prefetch helper, a
 * checkpoint restore and a shared-memory pair — the shadow agrees with
 * the simulated table in physical memory, so no simulated store reached
 * a page-table frame. And the host path's edge cases: page-crossing
 * accesses, a first store to a frame with no backing page, frames shared
 * by two address spaces, and VAs out of range or unmapped.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "kernel/pagetable.hh"
#include "sim/simulator.hh"

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

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "zmt_shadow_" + std::to_string(::getpid()) +
           "_" + name;
}

void
runOk(Simulator &sim)
{
    CoreResult result = sim.run();
    ASSERT_TRUE(result.ok()) << result.error;
}

/** Every in-range PTE in physical memory agrees with translate(). */
void
expectShadowMatchesTable(Simulator &sim)
{
    for (unsigned p = 0; p < sim.numProcesses(); ++p) {
        const AddressSpace &space = sim.process(p).space();
        size_t valid = 0;
        for (Addr va = 0; va < space.vaLimit(); va += PageBytes) {
            uint64_t pte = sim.mem().read64(space.pteAddr(va));
            auto pa = space.translate(va);
            ASSERT_EQ(Pte::valid(pte), pa.has_value())
                << "asn " << space.asn() << " va 0x" << std::hex << va;
            if (pa) {
                EXPECT_EQ(Pte::framePa(pte), pageBase(*pa));
                ++valid;
            }
        }
        EXPECT_EQ(valid, space.mappedPages()) << "asn " << space.asn();
        EXPECT_GT(valid, 0u);
    }
}

// ---------------------------------------------------------------------
// The shadow matches the simulated page table after full runs.
// ---------------------------------------------------------------------

TEST(PageTableShadow, MatchesTableUnderEveryMechanism)
{
    for (ExceptMech mech :
         {ExceptMech::PerfectTlb, ExceptMech::Traditional,
          ExceptMech::Multithreaded, ExceptMech::QuickStart,
          ExceptMech::Hardware}) {
        SCOPED_TRACE(mechName(mech));
        SimParams params;
        params.except.mech = mech;
        params.maxInsts = 30000;
        Simulator sim(params, benchmarkWorkloads({"compress"}));
        runOk(sim);
        expectShadowMatchesTable(sim);
    }
}

TEST(PageTableShadow, MatchesTableUnderFaultInjection)
{
    SimParams params;
    params.except.mech = ExceptMech::QuickStart;
    params.maxInsts = 30000;
    params.verify.invariantPeriod = 1;
    params.verify.badPteProb = 0.3;
    params.verify.stealIdleProb = 0.2;
    params.verify.forceSecondaryMissProb = 0.5;
    params.verify.squeezePeriod = 500;
    params.verify.squeezeDuration = 100;
    params.verify.squeezeWindowTo = 24;
    params.verify.handlerSquashPeriod = 700;
    Simulator sim(params, benchmarkWorkloads({"compress", "vortex"}));
    runOk(sim);
    EXPECT_GT(stat(sim, "verify.injectedBadPtes"), 0.0);
    expectShadowMatchesTable(sim);
}

TEST(PageTableShadow, MatchesTableWithPrefetchHelper)
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.maxInsts = 30000;
    params.helper.prefetch = true;
    Simulator sim(params, benchmarkWorkloads({"deltablue"}));
    runOk(sim);
    EXPECT_GT(stat(sim, "helper.prefetch.probes"), 0.0);
    expectShadowMatchesTable(sim);
}

TEST(PageTableShadow, MatchesTableAfterCheckpointRestore)
{
    const std::string path = tempPath("restore.ckpt");
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.maxInsts = 20000;

    SimParams save = params;
    save.ffwd.insts = 20000;
    save.ffwd.save = path;
    Simulator straight(save, benchmarkWorkloads({"applu", "gcc"}));
    runOk(straight);
    expectShadowMatchesTable(straight);

    SimParams restore = params;
    restore.ffwd.restore = path;
    Simulator restored(restore, std::vector<WorkloadParams>{});
    std::remove(path.c_str());
    expectShadowMatchesTable(restored); // filled from the imported table
    runOk(restored);
    expectShadowMatchesTable(restored);
}

TEST(PageTableShadow, RestoreRefusesOversizedAddressSpace)
{
    // The shadow is sized by the table's VA range, so a checkpoint's
    // va_limit is outside input that sets an allocation size.
    const std::string path = tempPath("oversized.ckpt");
    SimParams save;
    save.ffwd.insts = 5000;
    save.ffwd.save = path;
    {
        Simulator straight(save, benchmarkWorkloads({"compress"}));
    }
    CheckpointData data;
    std::string err;
    ASSERT_TRUE(loadCheckpoint(path, &data, &err)) << err;
    data.procs[0].restore.vaLimit = Addr{1} << 40;
    ASSERT_TRUE(saveCheckpoint(data, path, &err)) << err;

    SimParams restore;
    restore.ffwd.restore = path;
    EXPECT_EXIT(Simulator(restore, std::vector<WorkloadParams>{}),
                ::testing::ExitedWithCode(1),
                "exceeds the 0x100000000-byte limit");
    std::remove(path.c_str());

    PhysMem mem;
    FrameAllocator frames;
    EXPECT_EXIT(AddressSpace(1, mem, frames, AddressSpace::MaxVaLimit + 1),
                ::testing::ExitedWithCode(1), "exceeds");
}

TEST(PageTableShadow, MatchesTableForSharedMemoryPair)
{
    SimParams params;
    params.except.mech = ExceptMech::Multithreaded;
    params.maxInsts = 30000;
    Simulator sim(params, benchmarkWorkloads({"racetest", "racetest"}));
    runOk(sim);
    expectShadowMatchesTable(sim);
}

// ---------------------------------------------------------------------
// The host path's edge cases.
// ---------------------------------------------------------------------

TEST(AddressSpaceHostPath, PageCrossingAccessIsPhysicallyContiguous)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    // Page 1 gets the lower frame, so the frame after page 0's is not
    // page 1's: a crossing access must not follow the virtual layout.
    space.mapPage(PageBytes);
    space.mapPage(0);
    const Addr va = PageBytes - 4;
    const Addr pa = *space.translate(va);
    ASSERT_NE(pageBase(pa + 4), pageBase(*space.translate(PageBytes)));

    mem.write64(pa, 0x1122334455667788ULL);
    auto loaded = space.load(va, 8);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->pa, pa);
    EXPECT_EQ(loaded->value, mem.read64(pa));
    EXPECT_EQ(loaded->value, 0x1122334455667788ULL);

    EXPECT_EQ(space.store(va, 8, 0xa1b2c3d4e5f60718ULL), pa);
    EXPECT_EQ(mem.read64(pa), 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(mem.read32(pa + 4), 0xa1b2c3d4u);
    EXPECT_EQ(space.load(PageBytes, 4)->value, 0u); // page 1 untouched

    // A within-page access next to it reads the same bytes on the host
    // path as PhysMem does.
    EXPECT_EQ(space.load(va - 4, 8)->value, mem.read64(pa - 4));
    space.store(va - 8, 4, 0xcafef00du);
    EXPECT_EQ(mem.read32(pa - 8), 0xcafef00du);
}

TEST(AddressSpaceHostPath, FirstStoreCreatesOneBackingPage)
{
    SimParams params;
    Simulator sim(params, benchmarkWorkloads({"compress"}));
    AddressSpace &space = sim.process(0).space();
    const Addr va = sim.workload(0).farBase + 5 * PageBytes + 16;
    auto pa = space.translate(va);
    ASSERT_TRUE(pa.has_value());
    ASSERT_EQ(sim.mem().hostPage(*pa), nullptr) << "far page already backed";

    const size_t before = sim.mem().pagesAllocated();
    EXPECT_EQ(space.load(va, 8)->value, 0u); // a load creates nothing
    EXPECT_EQ(sim.mem().pagesAllocated(), before);

    EXPECT_EQ(space.store(va, 8, 0xfeedfacecafebeefULL), pa);
    EXPECT_EQ(sim.mem().pagesAllocated(), before + 1);
    EXPECT_EQ(space.load(va, 8)->value, 0xfeedfacecafebeefULL);
    EXPECT_EQ(sim.mem().read64(*pa), 0xfeedfacecafebeefULL);

    space.store(va + 8, 4, 7);
    EXPECT_EQ(sim.mem().pagesAllocated(), before + 1);
    EXPECT_EQ(space.load(va + 8, 4)->value, 7u);
}

TEST(AddressSpaceHostPath, SharedFrameStoreVisibleToTheOtherSpace)
{
    for (unsigned creator : {0u, 1u}) {
        SCOPED_TRACE("page created through space " +
                     std::to_string(creator));
        SimParams params;
        Simulator sim(params,
                      benchmarkWorkloads({"racetest", "racetest"}));
        AddressSpace &mine = sim.process(creator).space();
        AddressSpace &other = sim.process(1 - creator).space();
        const Addr va = sim.workload(0).sharedBase + PageBytes + 64;
        ASSERT_EQ(mine.translate(va), other.translate(va));
        ASSERT_EQ(sim.mem().hostPage(*mine.translate(va)), nullptr);

        // The other space looks before the page exists...
        EXPECT_EQ(other.load(va, 8)->value, 0u);
        const size_t before = sim.mem().pagesAllocated();
        mine.store(va, 8, 0x5eed5eed5eed5eedULL);
        EXPECT_EQ(sim.mem().pagesAllocated(), before + 1);
        // ...and sees the store once it does, and vice versa.
        EXPECT_EQ(other.load(va, 8)->value, 0x5eed5eed5eed5eedULL);
        other.store(va + 8, 4, 0xbeefu);
        EXPECT_EQ(mine.load(va + 8, 4)->value, 0xbeefu);
        EXPECT_EQ(sim.mem().pagesAllocated(), before + 1);
    }
}

TEST(AddressSpaceHostPath, OutOfRangeAndUnmappedVasDoNotTranslate)
{
    PhysMem mem;
    FrameAllocator frames;
    // A limit inside the last page: that page is mappable, but only
    // below the limit.
    const Addr limit = 64 * PageBytes + 100;
    AddressSpace space(1, mem, frames, limit);
    space.mapPage(64 * PageBytes);
    EXPECT_TRUE(space.translate(limit - 1).has_value());
    EXPECT_FALSE(space.translate(limit).has_value());
    EXPECT_FALSE(space.translate(~Addr{0}).has_value());
    EXPECT_FALSE(space.translate(3 * PageBytes).has_value());

    const size_t before = mem.pagesAllocated();
    EXPECT_FALSE(space.load(limit, 8).has_value());
    EXPECT_FALSE(space.load(3 * PageBytes, 8).has_value());
    EXPECT_FALSE(space.store(limit, 8, 1).has_value());
    EXPECT_FALSE(space.store(3 * PageBytes, 8, 1).has_value());
    EXPECT_EQ(mem.pagesAllocated(), before);
}

} // anonymous namespace
