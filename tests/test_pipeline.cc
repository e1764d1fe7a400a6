/**
 * @file
 * Cycle-granularity micro-tests of the pipeline model using hand-built
 * programs: back-to-back ALU throughput, load-use latencies through
 * the full pipeline, branch mispredict penalties scaling with frontend
 * depth, issue-width limits, FU-pool limits, window backpressure, and
 * the in-order-retirement cost of a long-latency head.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <stdexcept>

#include "sim/simulator.hh"

namespace
{

using namespace zmt;
using namespace zmt::isa;

/** Run a raw program to completion (HALT) and report cycles. */
struct MicroHarness
{
    PhysMem mem;
    FrameAllocator frames;
    PalCode pal;
    std::unique_ptr<Process> proc;
    stats::StatGroup root{"sim"};
    std::unique_ptr<SmtCore> core;

    /** @p sink, if given, is attached to the core's event log (which
     *  @p params must turn on) before the first cycle. */
    MicroHarness(const Assembler &a, const SimParams &params,
                 obs::EventSink *sink = nullptr)
        : pal(buildPalCode())
    {
        for (size_t i = 0; i < pal.prog.size(); ++i)
            mem.write32(pal.prog.base + i * 4, pal.prog.words[i]);
        ProcessImage image;
        image.text = a.assemble(0x10000);
        image.vaLimit = 0x200000;
        image.mapRanges.push_back({0x20000, 32 * PageBytes});
        proc = std::make_unique<Process>(image, 1, mem, frames);
        std::vector<Process *> procs{proc.get()};
        core = std::make_unique<SmtCore>(params, procs, mem, pal, &root);
        if (sink)
            core->eventLog()->attachSink(sink);

        // Warm the instruction cache: the micro-tests measure pipeline
        // behaviour, not compulsory text misses.
        for (Addr va = image.text.base; va < image.text.end(); va += 32) {
            auto pa = proc->space().translate(va);
            if (pa)
                core->memory().instAccess(*pa, 0);
        }
        for (Addr pa = pal.prog.base; pa < pal.prog.end(); pa += 32)
            core->memory().instAccess(pa, 0);
        core->memory().settleTiming();

        // Run until the program quiesces after HALT retires.
        uint64_t last = 0;
        unsigned stable = 0;
        for (unsigned i = 0; i < 2'000'000; ++i) {
            core->tick();
            uint64_t now_retired = core->retiredUserInsts(0);
            if (now_retired == last) {
                if (++stable >= 3000 && now_retired > 0) {
                    finished = true;
                    return;
                }
            } else {
                stable = 0;
                last = now_retired;
            }
        }
    }

    bool finished = false;

    /** Cycles until quiescence, with the detection window removed. */
    Cycle
    cycles() const
    {
        EXPECT_TRUE(finished) << "program did not finish";
        return core->now() >= 3000 ? core->now() - 3000 : 0;
    }

    uint64_t insts() const { return core->retiredUserInsts(0); }
};

SimParams
microParams()
{
    SimParams params;
    params.except.mech = ExceptMech::PerfectTlb;
    params.maxInsts = 1'000'000'000; // driven by tick(), not run()
    return params;
}

/** Issue and completion cycles of each instruction, from the core's
 *  event log. */
struct IssueTimes : obs::EventSink
{
    struct Times
    {
        Cycle issued = MaxCycle;
        Cycle completed = MaxCycle;
    };
    std::map<SeqNum, Times> bySeq;

    void
    onEvent(const obs::Event &e) override
    {
        if (e.kind == obs::EventKind::Issued)
            bySeq[e.seq].issued = e.cycle;
        else if (e.kind == obs::EventKind::Completed)
            bySeq[e.seq].completed = e.cycle;
    }

    /** The @p i-th instruction of a straight-line program. */
    const Times &
    inst(size_t i) const
    {
        if (i >= bySeq.size())
            throw std::out_of_range("instruction never issued");
        return std::next(bySeq.begin(), std::ptrdiff_t(i))->second;
    }
};

/** Run a straight-line program and time its instructions. */
IssueTimes
issueTimes(const Assembler &a)
{
    SimParams params = microParams();
    params.obs.attrib = true; // turns the event log on
    IssueTimes times;
    MicroHarness h(a, params, &times);
    EXPECT_TRUE(h.finished);
    return times;
}

/** Straight-line program of n copies of an instruction, then HALT. */
Assembler
straightLine(unsigned n, const std::function<void(Assembler &)> &emit)
{
    Assembler a;
    for (unsigned i = 0; i < n; ++i)
        emit(a);
    a.halt();
    return a;
}

TEST(Pipeline, SerialChainRunsOnePerCycle)
{
    // 200 dependent ALU ops: ~1 cycle each after the pipeline fills.
    Assembler a =
        straightLine(200, [](Assembler &a) { a.addi(1, 1, 1); });
    MicroHarness h(a, microParams());
    EXPECT_GE(h.cycles(), 200u);
    EXPECT_LE(h.cycles(), 230u); // + fill + halt slack
}

TEST(Pipeline, IndependentOpsRunAtFullWidth)
{
    // 400 independent ops on 8 registers: ~width per cycle.
    Assembler a;
    for (unsigned i = 0; i < 400; ++i)
        a.addi(1 + (i % 8), 31, 1);
    a.halt();
    MicroHarness h(a, microParams());
    EXPECT_LE(h.cycles(), 400 / 8 + 40u);
}

TEST(Pipeline, IssueWidthCapsThroughput)
{
    SimParams params = microParams();
    params.core.setWidth(2);
    Assembler a;
    for (unsigned i = 0; i < 400; ++i)
        a.addi(1 + (i % 8), 31, 1);
    a.halt();
    MicroHarness h(a, params);
    EXPECT_GE(h.cycles(), 200u); // 2-wide floor
}

TEST(Pipeline, FpDivPoolSerializes)
{
    // fdiv latency 12, one FP div unit: independent divides still issue
    // one per cycle (fully pipelined), so 40 divides ~ 40 issue cycles
    // + 12 drain; dependent divides cost 12 each.
    Assembler indep;
    for (unsigned i = 0; i < 40; ++i)
        indep.fdiv(1 + (i % 4), 9, 10 + (i % 8));
    indep.halt();
    MicroHarness hi(indep, microParams());

    Assembler dep;
    for (unsigned i = 0; i < 40; ++i)
        dep.fdiv(1, 9, 1);
    dep.halt();
    MicroHarness hd(dep, microParams());

    EXPECT_GE(hd.cycles(), 40 * 12u);
    EXPECT_LT(hi.cycles(), hd.cycles() / 3);
}

// The moves between register files wait for the producer in the file
// they read and wake consumers in the file they write.
TEST(Pipeline, FimovWaitsForTheFdivItReads)
{
    Assembler a;
    a.fdiv(1, 2, 3); // f3 = f1 / f2
    a.fimov(3, 4);   // r4 = bits of f3
    a.halt();
    IssueTimes t = issueTimes(a);
    EXPECT_GE(t.inst(1).issued, t.inst(0).completed);
}

TEST(Pipeline, IfmovWaitsForTheMulItReads)
{
    Assembler a;
    a.mul(1, 2, 3);  // r3 = r1 * r2
    a.ifmov(3, 4);   // f4 = bits of r3
    a.halt();
    IssueTimes t = issueTimes(a);
    EXPECT_GE(t.inst(1).issued, t.inst(0).completed);
}

TEST(Pipeline, IntegerConsumerWaitsForFtoi)
{
    Assembler a;
    a.ftoi(1, 2);    // r2 = int(f1)
    a.addi(3, 2, 1); // r3 = r2 + 1
    a.halt();
    IssueTimes t = issueTimes(a);
    EXPECT_GE(t.inst(1).issued, t.inst(0).completed);
}

TEST(Pipeline, LoadUseLatencyL1)
{
    // Dependent pointer chase through one L1-resident cell pointing to
    // itself: each load-use step costs the 3-cycle port latency.
    Assembler a;
    a.li(1, 0x20000);
    a.stq(1, 1, 0); // cell holds its own address
    for (unsigned i = 0; i < 100; ++i)
        a.ldq(1, 1, 0);
    a.halt();
    MicroHarness h(a, microParams());
    // 100 x 3-cycle load-use links, plus the first touch of the cell
    // (the store's write-allocate fill comes from memory).
    EXPECT_GE(h.cycles(), 300u);
    EXPECT_LE(h.cycles(), 520u);
}

TEST(Pipeline, MispredictPenaltyScalesWithFrontendDepth)
{
    // A data-dependent 50/50 branch: mispredicts cost the frontend
    // refill, so deeper pipes run measurably slower.
    auto make = [] {
        Assembler a;
        a.li(9, 0x9e3779b97f4a7c15ULL);
        a.addi(5, 31, 400);
        a.label("loop");
        a.mul(1, 9, 1);
        a.addi(1, 1, 12345);
        a.srli(2, 1, 33);
        a.andi(2, 2, 1);
        a.beq(2, "skip");
        a.addi(3, 3, 1);
        a.label("skip");
        a.addi(5, 5, -1);
        a.bne(5, "loop");
        a.halt();
        return a;
    };

    SimParams shallow = microParams();
    shallow.core.setFrontendDepth(3);
    MicroHarness hs(make(), shallow);

    SimParams deep = microParams();
    deep.core.setFrontendDepth(11);
    MicroHarness hd(make(), deep);

    // ~200 mispredicts x 8 extra stages.
    EXPECT_GT(hd.cycles(), hs.cycles() + 800);
}

TEST(Pipeline, InOrderRetireBlocksOnLongLatencyHead)
{
    // A cold (memory-latency) load followed by many independent ALU
    // ops: the ALU work executes in its shadow, so total time is about
    // the memory latency, not the sum.
    Assembler a;
    a.li(1, 0x20000 + 16 * 4096);
    a.ldq(2, 1, 0); // cold: ~104 cycles
    for (unsigned i = 0; i < 300; ++i)
        a.addi(3 + (i % 5), 31, 1);
    a.halt();
    MicroHarness h(a, microParams());
    EXPECT_GE(h.cycles(), 104u);
    EXPECT_LE(h.cycles(), 175u); // overlap, not 104 + 300/8 + serial
}

TEST(Pipeline, WindowSizeBoundsMemoryParallelism)
{
    // Two cold loads 200 instructions apart: with a 128-entry window
    // the second load cannot enter until the first nearly drains, so
    // the latencies serialize; with a large window they overlap.
    auto make = [] {
        Assembler a;
        a.li(1, 0x20000 + 20 * 4096);
        a.li(2, 0x20000 + 24 * 4096);
        a.ldq(3, 1, 0);
        for (unsigned i = 0; i < 200; ++i)
            a.addi(4 + (i % 4), 31, 1);
        a.ldq(5, 2, 0);
        a.addi(8, 5, 1);
        a.halt();
        return a;
    };

    SimParams small = microParams();
    small.core.windowSize = 64;
    MicroHarness h_small(make(), small);

    SimParams big = microParams();
    big.core.windowSize = 512;
    MicroHarness h_big(make(), big);

    EXPECT_LT(h_big.cycles() + 40, h_small.cycles());
}

TEST(Pipeline, PredictableLoopHasNoSteadyStateMispredicts)
{
    Assembler a;
    a.addi(5, 31, 1000);
    a.label("loop");
    a.addi(1, 1, 1);
    a.addi(5, 5, -1);
    a.bne(5, "loop");
    a.halt();
    MicroHarness h(a, microParams());

    const auto *squashes = dynamic_cast<const stats::Scalar *>(
        h.root.find("core.branchSquashes"));
    ASSERT_NE(squashes, nullptr);
    // YAGS warms up in a handful of iterations; the loop-closing
    // branch is then always predicted.
    EXPECT_LE(squashes->value(), 20.0);
}

TEST(Pipeline, CallReturnPredictsViaRas)
{
    Assembler a;
    a.addi(5, 31, 300);
    a.liLabel(7, "func");
    a.label("loop");
    a.jsr(26, 7);
    a.addi(5, 5, -1);
    a.bne(5, "loop");
    a.halt();
    a.label("func");
    a.addi(2, 2, 1);
    a.ret(26);

    MicroHarness h(a, microParams());
    const auto *ras = dynamic_cast<const stats::Scalar *>(
        h.root.find("core.bpred.rasMispredicts"));
    ASSERT_NE(ras, nullptr);
    EXPECT_LE(ras->value(), 3.0);
}

} // anonymous namespace
