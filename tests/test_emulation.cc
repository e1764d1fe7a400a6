/**
 * @file
 * Tests for the generalized exception mechanism (paper Section 6):
 * instruction emulation. FSQRT is configured as unimplemented in
 * hardware; the PAL handler reads the operand from EmulArg, burns
 * Newton-Raphson iterations, and commits the destination with EMULWR.
 * Under the multithreaded mechanism the parked instruction is
 * converted to a NOP and its consumers woken; under every other
 * mechanism the trap path runs and resumes *after* the instruction.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "isa/assembler.hh"
#include "kernel/funcmachine.hh"
#include "kernel/pal.hh"
#include "sim/experiment.hh"

namespace
{

using namespace zmt;

WorkloadParams
emulWorkload()
{
    WorkloadParams wp;
    wp.name = "emul";
    wp.fpChains = 2;
    wp.fpOpsPerChain = 2;
    wp.fsqrtOps = 2;
    wp.innerIters = 30;
    wp.farLoadsPerOuter = 1;
    return wp;
}

double
stat(const Simulator &sim, const std::string &path)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(
        sim.statsRoot().find("core." + path));
    return s ? s->value() : -1.0;
}

class EmulGoldenTest : public ::testing::TestWithParam<ExceptMech>
{};

TEST_P(EmulGoldenTest, ArchitecturalResultMatchesGolden)
{
    SimParams params;
    params.maxInsts = 25000;
    params.except.mech = GetParam();
    params.except.emulateFsqrt = true;

    WorkloadParams wp = emulWorkload();
    Simulator sim(params, std::vector<WorkloadParams>{wp});
    sim.run();

    uint64_t retired = sim.core().retiredUserInsts(0);
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);
    ArchResult golden = machine.run(retired);

    EXPECT_EQ(sim.core().retiredStoreHash(0), golden.storeHash)
        << mechName(GetParam());
    EXPECT_GT(stat(sim, "emulFaultsSeen"), 0.0);
    EXPECT_GT(stat(sim, "emulDone"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Mechs, EmulGoldenTest,
    ::testing::Values(ExceptMech::PerfectTlb, ExceptMech::Traditional,
                      ExceptMech::Multithreaded, ExceptMech::QuickStart,
                      ExceptMech::Hardware),
    [](const auto &info) { return mechName(info.param); });

TEST(Emulation, DisabledByDefault)
{
    SimParams params;
    params.maxInsts = 15000;
    params.except.mech = ExceptMech::Traditional;

    WorkloadParams wp = emulWorkload();
    Simulator sim(params, std::vector<WorkloadParams>{wp});
    sim.run();
    // FSQRT executes in hardware: no emulation exceptions.
    EXPECT_EQ(stat(sim, "emulFaultsSeen"), 0.0);
    EXPECT_EQ(stat(sim, "emulDone"), 0.0);
}

TEST(Emulation, MultithreadedAvoidsTheSquashCost)
{
    // The paper's Section 6 expectation: for frequently executed
    // emulation handlers, running them in an idle thread (no squash,
    // no refetch, consumers woken in place) is dramatically cheaper
    // than trapping.
    WorkloadParams wp = emulWorkload();

    SimParams params;
    params.maxInsts = 40000;
    params.except.emulateFsqrt = true;

    params.except.mech = ExceptMech::Traditional;
    Simulator trad(params, std::vector<WorkloadParams>{wp});
    CoreResult trad_result = trad.run();

    params.except.mech = ExceptMech::Multithreaded;
    Simulator mt(params, std::vector<WorkloadParams>{wp});
    CoreResult mt_result = mt.run();

    EXPECT_LT(double(mt_result.cycles), 0.8 * double(trad_result.cycles));
}

TEST(Emulation, EmulwrWaitsForTheStagedResult)
{
    // EMULWR reads the result the handler's MTPR stages in EmulResult,
    // so it issues only once that MTPR has completed: the
    // Newton-Raphson chain ahead of the MTPR delays the commit.
    struct Times
    {
        ThreadID tid = InvalidThreadID;
        bool emulwr = false;
        Cycle issued = MaxCycle;
        Cycle completed = MaxCycle;
    };
    struct HandlerLog : obs::EventSink
    {
        const obs::EventLog *log = nullptr;
        std::string mtpr, emulwr;      //!< their disassembly
        std::map<SeqNum, Times> bySeq; //!< the two instructions only

        void
        onEvent(const obs::Event &e) override
        {
            if (e.kind != obs::EventKind::Issued &&
                e.kind != obs::EventKind::Completed)
                return;
            const std::string *text = log->label(e.seq);
            if (!text || (*text != mtpr && *text != emulwr))
                return;
            Times &t = bySeq[e.seq];
            t.tid = e.tid;
            t.emulwr = *text == emulwr;
            (e.kind == obs::EventKind::Issued ? t.issued : t.completed) =
                e.cycle;
        }
    } handler_log;

    PalCode pal = buildPalCode();
    for (Addr pc = pal.emulFsqrtEntry; pc < pal.prog.end(); pc += 4) {
        isa::DecodedInst inst =
            isa::decode(pal.prog.words[(pc - pal.prog.base) / 4]);
        if (inst.op == isa::Opcode::Mtpr &&
            inst.imm == int16_t(isa::PrivReg::EmulResult))
            handler_log.mtpr = isa::disassemble(inst);
        if (inst.op == isa::Opcode::Emulwr)
            handler_log.emulwr = isa::disassemble(inst);
    }
    ASSERT_FALSE(handler_log.mtpr.empty());
    ASSERT_FALSE(handler_log.emulwr.empty());

    SimParams params;
    params.maxInsts = 20000;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.emulateFsqrt = true;
    // The pipeline view keeps each instruction's disassembly.
    params.obs.pipeview = ::testing::TempDir() + "zmt_emulwr.konata";
    params.obs.ringCapacity = 4096;
    Simulator sim(params, std::vector<WorkloadParams>{emulWorkload()});
    handler_log.log = sim.core().eventLog();
    sim.core().eventLog()->attachSink(&handler_log);
    ASSERT_TRUE(sim.run().ok());
    std::remove(params.obs.pipeview.c_str());

    // Pair each EMULWR with the latest MTPR EmulResult on its thread.
    std::map<ThreadID, const Times *> staged;
    unsigned checked = 0, early = 0;
    SeqNum first_early = 0;
    for (const auto &[seq, t] : handler_log.bySeq) {
        if (!t.emulwr) {
            staged[t.tid] = &t;
            continue;
        }
        if (t.issued == MaxCycle)
            continue; // squashed before issue
        ASSERT_TRUE(staged[t.tid]) << "EMULWR seq " << seq;
        ++checked;
        if (t.issued < staged[t.tid]->completed && early++ == 0)
            first_early = seq;
    }
    EXPECT_GT(checked, 0u);
    EXPECT_EQ(early, 0u) << "of " << checked << " EMULWRs issued before "
                         << "their MTPR completed; first seq "
                         << first_early;
}

TEST(Emulation, QuickStartTypePredictorTracksLastType)
{
    // A workload with both TLB misses and emulated FSQRTs: the
    // quick-start buffer holds the *predicted* (last) handler type, so
    // type alternation shows up as type mispredicts (paper Sec 5.4's
    // history-based predictor).
    WorkloadParams wp = emulWorkload();
    wp.farLoadsPerOuter = 1;
    wp.innerIters = 10; // dense TLB misses interleaved with FSQRTs

    SimParams params;
    params.maxInsts = 40000;
    params.except.mech = ExceptMech::QuickStart;
    params.except.emulateFsqrt = true;

    Simulator sim(params, std::vector<WorkloadParams>{wp});
    sim.run();
    EXPECT_GT(stat(sim, "qsTypeMispredicts"), 0.0);
    EXPECT_GT(stat(sim, "emulDone"), 0.0);
    EXPECT_GT(stat(sim, "tlbMisses"), 0.0);
}

TEST(Emulation, PalHandlerShape)
{
    PalCode pal = buildPalCode();
    EXPECT_GT(pal.emulFsqrtEntry, pal.dtbMissEntry);
    EXPECT_GE(pal.emulFsqrtLen, 15u); // Newton iterations: real work
    EXPECT_LE(pal.emulFsqrtLen, 40u);

    // The handler ends with EMULWR; RFE; and performs no memory ops.
    unsigned emulwrs = 0, mems = 0;
    size_t first = (pal.emulFsqrtEntry - pal.prog.base) / 4;
    for (size_t i = first; i < first + pal.emulFsqrtLen; ++i) {
        isa::DecodedInst inst = isa::decode(pal.prog.words[i]);
        emulwrs += inst.op == isa::Opcode::Emulwr ? 1 : 0;
        mems += inst.info->isLoad || inst.info->isStore ? 1 : 0;
    }
    EXPECT_EQ(emulwrs, 1u);
    EXPECT_EQ(mems, 0u);
    isa::DecodedInst last =
        isa::decode(pal.prog.words[first + pal.emulFsqrtLen - 1]);
    EXPECT_EQ(last.op, isa::Opcode::Rfe);
}

TEST(Emulation, BitMoveSemantics)
{
    // IFMOV/FIMOV are raw bit moves, not conversions.
    isa::Assembler a;
    a.li(1, 0x400921fb54442d18ULL); // bits of pi
    a.ifmov(1, 2);
    a.fimov(2, 3);
    a.halt();

    ProcessImage image;
    image.text = a.assemble(0x10000);
    image.vaLimit = 0x40000;
    PhysMem mem;
    FrameAllocator frames;
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);
    machine.run(100);
    EXPECT_EQ(machine.state().readFp(2), 0x400921fb54442d18ULL);
    EXPECT_EQ(machine.state().readInt(3), 0x400921fb54442d18ULL);
}

TEST(Emulation, MixedWithTlbMissesStaysCorrect)
{
    // Both exception classes active at once, multithreaded handling:
    // records of different kinds coexist, splices interleave.
    WorkloadParams wp = emulWorkload();
    wp.innerIters = 8;

    SimParams params;
    params.maxInsts = 30000;
    params.except.mech = ExceptMech::Multithreaded;
    params.except.idleThreads = 2;
    params.except.emulateFsqrt = true;

    Simulator sim(params, std::vector<WorkloadParams>{wp});
    sim.run();

    uint64_t retired = sim.core().retiredUserInsts(0);
    PhysMem mem;
    FrameAllocator frames;
    ProcessImage image = buildWorkload(wp);
    Process proc(image, 1, mem, frames);
    FuncMachine machine(proc, mem);
    ArchResult golden = machine.run(retired);
    EXPECT_EQ(sim.core().retiredStoreHash(0), golden.storeHash);
    EXPECT_GT(stat(sim, "emulDone"), 0.0);
    EXPECT_GT(stat(sim, "tlbMisses"), 0.0);
}


TEST(Emulation, FsqrtToF31LeavesF0Alone)
{
    // f31 discards writes, so an emulated FSQRT bound for it must not
    // land anywhere: EMULWR gets f31 as its destination, not f0.
    const uint64_t three = 0x4008000000000000ULL, four = 0x4010000000000000ULL;
    const Addr out = 0x20000;
    isa::Assembler a;
    a.li(1, three).ifmov(1, 0);
    a.li(2, four).ifmov(2, 5);
    a.fsqrt(5, 31);
    a.fimov(0, 3);
    a.li(4, out).stq(3, 4, 0);
    a.halt();
    ProcessImage image;
    image.text = a.assemble(0x10000);
    image.vaLimit = 0x100000;
    image.mapRanges.push_back({out, 8});

    for (ExceptMech mech :
         {ExceptMech::Traditional, ExceptMech::Multithreaded}) {
        SCOPED_TRACE(mechName(mech));
        SimParams params;
        params.except.mech = mech;
        params.except.idleThreads = 1;
        params.except.emulateFsqrt = true;
        PhysMem mem;
        FrameAllocator frames;
        PalCode pal = buildPalCode();
        for (size_t i = 0; i < pal.prog.size(); ++i)
            mem.write32(pal.prog.base + i * 4, pal.prog.words[i]);
        Process proc(image, 1, mem, frames);
        stats::StatGroup root("sim");
        SmtCore core(params, {&proc}, mem, pal, &root);
        // Ample time for the handler, the store's TLB miss and HALT.
        for (int i = 0; i < 3000; ++i)
            core.tick();
        EXPECT_EQ(core.emulDone.value(), 1.0);
        std::optional<Addr> pa = proc.space().translate(out);
        ASSERT_TRUE(pa);
        EXPECT_EQ(mem.read64(*pa), three);
    }
}

} // anonymous namespace
