/**
 * @file
 * Kernel substrate tests: sparse physical memory, page tables and
 * address spaces, process loading, instruction semantics (parameterized
 * against native C++ references), the functional reference machine,
 * and the PALcode image.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.hh"
#include "kernel/emulator.hh"
#include "kernel/funcmachine.hh"
#include "kernel/pal.hh"
#include "kernel/process.hh"

namespace
{

using namespace zmt;
using namespace zmt::isa;

// ---------------------------------------------------------------------
// Physical memory.
// ---------------------------------------------------------------------

TEST(PhysMem, ZeroFilledByDefault)
{
    PhysMem mem;
    EXPECT_EQ(mem.read64(0), 0u);
    EXPECT_EQ(mem.read(0x123456789, 4), 0u);
    // Reads must not materialize pages.
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(PhysMem, WriteReadRoundTrip)
{
    PhysMem mem;
    mem.write64(0x1000, 0xdeadbeefcafebabeULL);
    EXPECT_EQ(mem.read64(0x1000), 0xdeadbeefcafebabeULL);
    EXPECT_EQ(mem.read32(0x1000), 0xcafebabeu);
    EXPECT_EQ(mem.read(0x1004, 4), 0xdeadbeefu);
    EXPECT_EQ(mem.read(0x1000, 1), 0xbeu);
}

TEST(PhysMem, CrossPageAccess)
{
    PhysMem mem;
    Addr pa = PageBytes - 4;
    mem.write64(pa, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read64(pa), 0x1122334455667788ULL);
    EXPECT_EQ(mem.pagesAllocated(), 2u);
}

TEST(PhysMem, PartialWritePreservesNeighbors)
{
    PhysMem mem;
    mem.write64(0x2000, 0xffffffffffffffffULL);
    mem.write(0x2002, 2, 0xabcd);
    EXPECT_EQ(mem.read64(0x2000), 0xffffffffabcdffffULL);
}

TEST(PhysMem, SparseDistantRegions)
{
    PhysMem mem;
    mem.write64(0, 1);
    mem.write64(Addr{1} << 40, 2);
    EXPECT_EQ(mem.read64(0), 1u);
    EXPECT_EQ(mem.read64(Addr{1} << 40), 2u);
    EXPECT_EQ(mem.pagesAllocated(), 2u);
}

// ---------------------------------------------------------------------
// Frame allocator, PTEs, address spaces.
// ---------------------------------------------------------------------

TEST(FrameAllocator, SequentialPageAligned)
{
    FrameAllocator frames(0x100000);
    Addr a = frames.alloc();
    Addr b = frames.alloc();
    EXPECT_EQ(a, 0x100000u);
    EXPECT_EQ(b, a + PageBytes);
    Addr c = frames.allocContiguous(3);
    EXPECT_EQ(c, b + PageBytes);
    EXPECT_EQ(frames.alloc(), c + 3 * PageBytes);
}

TEST(Pte, EncodeDecode)
{
    uint64_t pte = Pte::make(0x123000ULL & ~PageMask);
    EXPECT_TRUE(Pte::valid(pte));
    EXPECT_FALSE(Pte::valid(0));
    EXPECT_EQ(Pte::framePa(pte), pageBase(0x123000ULL));
}

TEST(AddressSpace, UnmappedByDefault)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    EXPECT_FALSE(space.translate(0).has_value());
    EXPECT_FALSE(space.mapped(10 * PageBytes));
    EXPECT_FALSE(space.translate(64 * PageBytes).has_value()); // limit
}

TEST(AddressSpace, MapAndTranslate)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    space.mapPage(3 * PageBytes + 100);
    auto pa = space.translate(3 * PageBytes + 200);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa & PageMask, 200u);
    // Same page translates consistently; other pages stay unmapped.
    EXPECT_FALSE(space.translate(4 * PageBytes).has_value());
    EXPECT_EQ(space.mappedPages(), 1u);
}

TEST(AddressSpace, MapIsIdempotent)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    space.mapPage(0);
    auto first = space.translate(0);
    space.mapPage(0);
    auto second = space.translate(0);
    EXPECT_EQ(*first, *second);
    EXPECT_EQ(space.mappedPages(), 1u);
}

TEST(AddressSpace, PteAddrIsLinear)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    EXPECT_EQ(space.pteAddr(0), space.ptbr());
    EXPECT_EQ(space.pteAddr(PageBytes), space.ptbr() + 8);
    EXPECT_EQ(space.pteAddr(5 * PageBytes + 17), space.ptbr() + 40);
}

TEST(AddressSpace, PageTableLivesInPhysMem)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    space.mapPage(2 * PageBytes);
    uint64_t pte = mem.read64(space.pteAddr(2 * PageBytes));
    EXPECT_TRUE(Pte::valid(pte));
    EXPECT_EQ(Pte::framePa(pte) | 5, *space.translate(2 * PageBytes + 5));
}

TEST(AddressSpace, MapRangeCoversAllPages)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    space.mapRange(PageBytes + 100, 3 * PageBytes);
    EXPECT_TRUE(space.mapped(PageBytes));
    EXPECT_TRUE(space.mapped(2 * PageBytes));
    EXPECT_TRUE(space.mapped(3 * PageBytes));
    EXPECT_TRUE(space.mapped(4 * PageBytes)); // partially covered page
    EXPECT_FALSE(space.mapped(5 * PageBytes));
}

TEST(AddressSpace, DistinctFramesPerPage)
{
    PhysMem mem;
    FrameAllocator frames;
    AddressSpace space(1, mem, frames, 64 * PageBytes);
    space.mapPage(0);
    space.mapPage(PageBytes);
    EXPECT_NE(pageBase(*space.translate(0)),
              pageBase(*space.translate(PageBytes)));
}

// ---------------------------------------------------------------------
// Emulator semantics via the functional machine.
// ---------------------------------------------------------------------

/** Harness: assemble, load and run a program; expose final state. */
struct RunHarness
{
    PhysMem mem;
    FrameAllocator frames;
    std::unique_ptr<Process> proc;
    std::unique_ptr<FuncMachine> machine;

    explicit RunHarness(const Assembler &a,
                        std::array<uint64_t, NumIntRegs> regs = {},
                        std::array<uint64_t, NumFpRegs> fpregs = {})
    {
        ProcessImage image;
        image.text = a.assemble(0x10000);
        image.vaLimit = 0x100000;
        image.mapRanges.push_back({0x20000, 16 * PageBytes});
        image.initIntRegs = regs;
        image.initFpRegs = fpregs;
        proc = std::make_unique<Process>(image, 1, mem, frames);
        machine = std::make_unique<FuncMachine>(*proc, mem);
    }

    ArchResult run(uint64_t max = 10000) { return machine->run(max); }
    uint64_t reg(unsigned r) const { return machine->state().readInt(r); }
    double
    freg(unsigned r) const
    {
        return std::bit_cast<double>(machine->state().readFp(r));
    }
};

TEST(Emulator, AddSubChain)
{
    Assembler a;
    a.addi(1, ZeroReg, 10);
    a.addi(2, ZeroReg, 32);
    a.add(1, 2, 3);
    a.sub(3, 1, 4);
    a.halt();
    RunHarness h(a);
    auto result = h.run();
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(h.reg(3), 42u);
    EXPECT_EQ(h.reg(4), 32u);
    EXPECT_EQ(result.instsExecuted, 5u);
}

/**
 * Parameterized integer-ALU semantics vs native reference.
 *
 * ctest names each case after gtest's byte dump of its AluCase. The seven
 * bytes after the opcode used to be padding, holding whatever the stack
 * held, so under ASLR a case's name changed from one test listing to the
 * next. `fill` makes them a member, set to the bytes the cases have been
 * registered under, so every build lists the same names.
 */
struct AluCase
{
    Opcode op;
    std::array<uint8_t, 7> fill;
    uint64_t a, b;
    uint64_t expected;
};
static_assert(sizeof(AluCase) == 32);

class AluSemanticsTest : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluSemanticsTest, MatchesReference)
{
    const AluCase &c = GetParam();
    Assembler a;
    a.emit(makeReg(c.op, 1, 2, 3));
    a.halt();
    std::array<uint64_t, NumIntRegs> regs{};
    regs[1] = c.a;
    regs[2] = c.b;
    RunHarness h(a, regs);
    h.run();
    EXPECT_EQ(h.reg(3), c.expected)
        << opInfo(c.op).mnemonic << " " << c.a << ", " << c.b;
}

std::vector<AluCase>
aluCases()
{
    std::vector<AluCase> cases;
    Rng rng(0xa1);
    auto s64 = [](uint64_t v) { return int64_t(v); };
    constexpr std::array<uint8_t, 7> fill{0x00, 0x01, 0x1b, 0x03,
                                          0x3b, 0x2c, 0x00};
    for (int i = 0; i < 12; ++i) {
        uint64_t a = rng.next(), b = rng.next();
        if (i == 0) { a = 0; b = 0; }
        if (i == 1) { a = ~0ull; b = 1; }
        if (i == 2) { a = 0x8000000000000000ull; b = 1; }
        auto add = [&](Opcode op, uint64_t expected) {
            cases.push_back({op, fill, a, b, expected});
        };
        add(Opcode::Add, a + b);
        add(Opcode::Sub, a - b);
        add(Opcode::And, a & b);
        add(Opcode::Or, a | b);
        add(Opcode::Xor, a ^ b);
        add(Opcode::Sll, a << (b & 63));
        add(Opcode::Srl, a >> (b & 63));
        add(Opcode::Sra, uint64_t(s64(a) >> (b & 63)));
        add(Opcode::Cmpeq, a == b ? 1ull : 0ull);
        add(Opcode::Cmplt, s64(a) < s64(b) ? 1ull : 0ull);
        add(Opcode::Cmple, s64(a) <= s64(b) ? 1ull : 0ull);
        add(Opcode::Mul, a * b);
        add(Opcode::Div, b ? uint64_t(s64(a) / s64(b)) : 0ull);
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, AluSemanticsTest,
                         ::testing::ValuesIn(aluCases()));

TEST(Emulator, ImmediateOps)
{
    Assembler a;
    a.addi(1, ZeroReg, -5);
    a.andi(2, 1, 0xff);
    a.ori(3, ZeroReg, 0x7fff);
    a.xori(4, 3, 0x00ff);
    a.slli(5, 3, 4);
    a.srli(6, 3, 4);
    a.cmplti(7, 1, 0);
    a.lui(8, int16_t(0x1234));
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_EQ(h.reg(1), uint64_t(int64_t(-5)));
    EXPECT_EQ(h.reg(2), 0xfbu); // low byte of -5
    EXPECT_EQ(h.reg(3), 0x7fffu);
    EXPECT_EQ(h.reg(4), 0x7f00u);
    EXPECT_EQ(h.reg(5), 0x7fff0u);
    EXPECT_EQ(h.reg(6), 0x7ffu);
    EXPECT_EQ(h.reg(7), 1u); // -5 < 0
    EXPECT_EQ(h.reg(8), 0x12340000u);
}

TEST(Emulator, LiMaterializesArbitraryConstants)
{
    for (uint64_t value : {0ull, 0x7fffull, 0x12345678ull,
                           0xdeadbeefcafebabeull, ~0ull}) {
        Assembler a;
        a.li(1, value);
        a.halt();
        RunHarness h(a);
        h.run();
        EXPECT_EQ(h.reg(1), value) << std::hex << value;
    }
}

TEST(Emulator, ZeroRegisterReadsZeroAndDropsWrites)
{
    Assembler a;
    a.addi(ZeroReg, ZeroReg, 99);
    a.add(ZeroReg, ZeroReg, 1);
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_EQ(h.reg(ZeroReg), 0u);
    EXPECT_EQ(h.reg(1), 0u);
}

TEST(Emulator, FloatingPoint)
{
    Assembler a;
    a.fadd(1, 2, 3);
    a.fmul(1, 2, 4);
    a.fsub(1, 2, 5);
    a.fdiv(1, 2, 6);
    a.fsqrt(7, 8);
    a.halt();
    std::array<uint64_t, NumFpRegs> fp{};
    fp[1] = std::bit_cast<uint64_t>(6.0);
    fp[2] = std::bit_cast<uint64_t>(1.5);
    fp[7] = std::bit_cast<uint64_t>(16.0);
    RunHarness h(a, {}, fp);
    h.run();
    EXPECT_DOUBLE_EQ(h.freg(3), 7.5);
    EXPECT_DOUBLE_EQ(h.freg(4), 9.0);
    EXPECT_DOUBLE_EQ(h.freg(5), 4.5);
    EXPECT_DOUBLE_EQ(h.freg(6), 4.0);
    EXPECT_DOUBLE_EQ(h.freg(8), 4.0);
}

TEST(Emulator, IntFpConversions)
{
    Assembler a;
    a.addi(1, ZeroReg, -7);
    a.itof(1, 2);
    a.ftoi(2, 3);
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_DOUBLE_EQ(h.freg(2), -7.0);
    EXPECT_EQ(int64_t(h.reg(3)), -7);
}

TEST(Emulator, LoadStoreQuadword)
{
    Assembler a;
    a.li(1, 0x20000);
    a.li(2, 0x1122334455667788ULL);
    a.stq(2, 1, 8);
    a.ldq(3, 1, 8);
    a.halt();
    RunHarness h(a);
    auto result = h.run();
    EXPECT_EQ(h.reg(3), 0x1122334455667788ULL);
    EXPECT_NE(result.storeHash, 0xcbf29ce484222325ULL); // one store folded
}

TEST(Emulator, LoadLongwordSignExtends)
{
    Assembler a;
    a.li(1, 0x20000);
    a.li(2, 0xffffffff80000001ULL);
    a.stl(2, 1, 0);  // stores low 32 bits
    a.ldl(3, 1, 0);  // sign-extends
    a.ldq(4, 1, 0);  // raw quad: upper half must be zero
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_EQ(h.reg(3), 0xffffffff80000001ULL);
    EXPECT_EQ(h.reg(4), 0x0000000080000001ULL);
}

TEST(Emulator, LoadOfUnmappedReturnsZero)
{
    Assembler a;
    a.li(1, 0x90000); // within vaLimit but unmapped
    a.addi(3, ZeroReg, 77);
    a.ldq(3, 1, 0);
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_EQ(h.reg(3), 0u);
}

TEST(Emulator, ConditionalBranches)
{
    // Count down from 5; r2 accumulates the loop trip count.
    Assembler a;
    a.addi(1, ZeroReg, 5);
    a.label("loop");
    a.addi(2, 2, 1);
    a.addi(1, 1, -1);
    a.bne(1, "loop");
    a.halt();
    RunHarness h(a);
    auto result = h.run();
    EXPECT_EQ(h.reg(2), 5u);
    EXPECT_EQ(result.instsExecuted, 1 + 3 * 5 + 1u);
}

TEST(Emulator, BranchVariants)
{
    Assembler a;
    a.addi(1, ZeroReg, -3);
    a.blt(1, "neg");
    a.addi(10, ZeroReg, 1); // skipped
    a.label("neg");
    a.addi(2, ZeroReg, 4);  // even -> low bit clear
    a.blbc(2, "even");
    a.addi(11, ZeroReg, 1); // skipped
    a.label("even");
    a.addi(3, ZeroReg, 7);  // odd
    a.blbs(3, "odd");
    a.addi(12, ZeroReg, 1); // skipped
    a.label("odd");
    a.bge(2, "done");       // 4 >= 0
    a.addi(13, ZeroReg, 1); // skipped
    a.label("done");
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_EQ(h.reg(10), 0u);
    EXPECT_EQ(h.reg(11), 0u);
    EXPECT_EQ(h.reg(12), 0u);
    EXPECT_EQ(h.reg(13), 0u);
}

TEST(Emulator, CallAndReturn)
{
    Assembler a;
    a.liLabel(1, "func");
    a.jsr(26, 1);            // call: r26 <- return address
    a.addi(3, 2, 1);         // executes after return
    a.halt();
    a.label("func");
    a.addi(2, ZeroReg, 41);
    a.ret(26);
    RunHarness h(a);
    auto result = h.run();
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(h.reg(3), 42u);
}

TEST(Emulator, BsrRelativeCall)
{
    Assembler a;
    a.bsr(26, "func");
    a.halt();
    a.label("func");
    a.addi(2, ZeroReg, 9);
    a.ret(26);
    RunHarness h(a);
    auto result = h.run();
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(h.reg(2), 9u);
}

TEST(Emulator, IndirectJump)
{
    Assembler a;
    a.liLabel(1, "there");
    a.jmp(1);
    a.addi(2, ZeroReg, 1); // skipped
    a.label("there");
    a.addi(3, ZeroReg, 5);
    a.halt();
    RunHarness h(a);
    h.run();
    EXPECT_EQ(h.reg(2), 0u);
    EXPECT_EQ(h.reg(3), 5u);
}

TEST(Emulator, StoreHashIsOrderSensitive)
{
    Assembler a1;
    a1.li(1, 0x20000);
    a1.addi(2, ZeroReg, 1);
    a1.addi(3, ZeroReg, 2);
    a1.stq(2, 1, 0);
    a1.stq(3, 1, 8);
    a1.halt();

    Assembler a2;
    a2.li(1, 0x20000);
    a2.addi(2, ZeroReg, 1);
    a2.addi(3, ZeroReg, 2);
    a2.stq(3, 1, 8);
    a2.stq(2, 1, 0);
    a2.halt();

    RunHarness h1(a1), h2(a2);
    EXPECT_NE(h1.run().storeHash, h2.run().storeHash);
}

TEST(FuncMachine, RunBoundedByMaxInsts)
{
    Assembler a;
    a.label("spin");
    a.br("spin");
    RunHarness h(a);
    auto result = h.run(1000);
    EXPECT_FALSE(result.halted);
    EXPECT_EQ(result.instsExecuted, 1000u);
}

TEST(FuncMachine, PrivilegedInUserModeIsFatal)
{
    Assembler a;
    a.tlbwr();
    RunHarness h(a);
    EXPECT_DEATH(h.run(), "privileged");
}


TEST(Emulator, FcmpltProducesFpBooleans)
{
    Assembler a;
    a.fcmplt(1, 2, 3); // 1.0 < 2.0 -> 1.0
    a.fcmplt(2, 1, 4); // 2.0 < 1.0 -> 0.0
    a.halt();
    std::array<uint64_t, NumFpRegs> fp{};
    fp[1] = std::bit_cast<uint64_t>(1.0);
    fp[2] = std::bit_cast<uint64_t>(2.0);
    RunHarness h(a, {}, fp);
    h.run();
    EXPECT_DOUBLE_EQ(h.freg(3), 1.0);
    EXPECT_DOUBLE_EQ(h.freg(4), 0.0);
}

TEST(Emulator, DivAndSqrtTotality)
{
    // Division by zero and sqrt of negatives are total (yield zero)
    // rather than trapping, by design.
    Assembler a;
    a.addi(1, ZeroReg, 5);
    a.div(1, ZeroReg, 2); // 5 / 0 -> 0
    a.fsqrt(7, 8);        // sqrt(-4) -> 0.0
    a.halt();
    std::array<uint64_t, NumFpRegs> fp{};
    fp[7] = std::bit_cast<uint64_t>(-4.0);
    RunHarness h(a, {}, fp);
    h.run();
    EXPECT_EQ(h.reg(2), 0u);
    EXPECT_DOUBLE_EQ(h.freg(8), 0.0);
}

/**
 * ExecContext that gives every register and memory read one value
 * and records which registers the semantics read.
 */
class ReadRecorder
{
  public:
    explicit ReadRecorder(uint64_t fill) : fill(fill) {}

    uint64_t readIntReg(unsigned r) { return note('r', r); }
    void writeIntReg(unsigned, uint64_t) {}
    uint64_t readFpReg(unsigned r) { return note('f', r); }
    void writeFpReg(unsigned, uint64_t) {}
    uint64_t readPrivReg(PrivReg pr) { return note('p', unsigned(pr)); }
    void writePrivReg(PrivReg, uint64_t) {}
    Addr pc() const { return 0x10000; }
    uint64_t readMem(Addr, unsigned) { return fill; }
    void writeMem(Addr, unsigned, uint64_t) {}
    void setNextPc(Addr) {}
    void tlbWrite(uint64_t, uint64_t) {}
    void returnFromException() {}
    void raiseHardException() {}
    void halt() {}

    std::vector<std::string> reads;

  private:
    uint64_t
    note(char file, unsigned reg)
    {
        reads.push_back(file + std::to_string(reg));
        return fill;
    }

    uint64_t fill;
};

static_assert(ExecContext<ReadRecorder>);

TEST(Emulator, RegisterReadsDoNotDependOnValues)
{
    // The timing core links each register executeInst reads to its
    // in-flight writer, so a read skipped for some operand values (a
    // zero divisor, a not-taken branch) would be a lost dependence.
    // All-zero registers take one side of every such test, an odd
    // positive value (2.0000000000000004 as a double) the other.
    for (unsigned op = 0; op < unsigned(Opcode::NumOpcodes); ++op) {
        DecodedInst inst;
        inst.op = Opcode(op);
        inst.info = &opInfo(inst.op);
        inst.ra = 1;
        inst.rb = 2;
        inst.rc = 3;
        inst.imm = int16_t(PrivReg::EmulResult); // also a valid MFPR/MTPR
        ReadRecorder zero(0), nonzero(0x4000000000000001ULL);
        executeInst(inst, zero);
        executeInst(inst, nonzero);
        EXPECT_EQ(zero.reads, nonzero.reads) << inst.info->mnemonic;
    }
}

TEST(Emulator, PalModePrivilegedRegisterFile)
{
    // In PAL mode, MFPR/MTPR move values through the privileged file.
    Assembler a;
    a.addi(1, ZeroReg, 77);
    a.mtpr(1, PrivReg::TlbTag);
    a.mfpr(2, PrivReg::TlbTag);
    a.halt();
    RunHarness h(a);
    h.machine->state().palMode = true; // enter PAL mode directly
    h.run();
    EXPECT_EQ(h.reg(2), 77u);
    EXPECT_EQ(h.machine->state().readPriv(PrivReg::TlbTag), 77u);
}

TEST(Emulator, PalModeMemoryIsPhysical)
{
    // PAL-mode loads bypass translation: write physical memory
    // directly and read it back through a PAL LDQ.
    Assembler a;
    a.li(1, 0x3000);
    a.ldq(2, 1, 0);
    a.halt();
    RunHarness h(a);
    h.mem.write64(0x3000, 0xfeedULL);
    h.machine->state().palMode = true;
    h.run();
    EXPECT_EQ(h.reg(2), 0xfeedULL);
}

// ---------------------------------------------------------------------
// PALcode.
// ---------------------------------------------------------------------

TEST(Pal, ImageShape)
{
    PalCode pal = buildPalCode();
    EXPECT_EQ(pal.dtbMissEntry, PalBase);
    EXPECT_GE(pal.prog.size(), pal.dtbMissLen);
    // Common case is "tens of instructions" (paper Section 3).
    EXPECT_GE(pal.dtbMissLen, 10u);
    EXPECT_LE(pal.dtbMissLen, 40u);
}

TEST(Pal, CommonPathEndsWithRfe)
{
    PalCode pal = buildPalCode();
    DecodedInst last = decode(pal.prog.words[pal.dtbMissLen - 1]);
    EXPECT_EQ(last.op, Opcode::Rfe);
}

TEST(Pal, ContainsExactlyOneLoadOnCommonPath)
{
    PalCode pal = buildPalCode();
    unsigned loads = 0, stores = 0, tlbwrs = 0;
    for (unsigned i = 0; i < pal.dtbMissLen; ++i) {
        DecodedInst inst = decode(pal.prog.words[i]);
        loads += inst.info->isLoad ? 1 : 0;
        stores += inst.info->isStore ? 1 : 0;
        tlbwrs += inst.op == Opcode::Tlbwr ? 1 : 0;
    }
    EXPECT_EQ(loads, 1u);  // the PTE load
    EXPECT_EQ(stores, 0u); // the handler performs no stores (Sec 4.2)
    EXPECT_EQ(tlbwrs, 1u);
}

TEST(Pal, PageFaultPathRaisesHardException)
{
    PalCode pal = buildPalCode();
    Addr fault = pal.prog.labelAddr("pagefault");
    size_t idx = (fault - pal.prog.base) / 4;
    EXPECT_EQ(decode(pal.prog.words[idx]).op, Opcode::Hardexc);
}

// ---------------------------------------------------------------------
// Process loading.
// ---------------------------------------------------------------------

TEST(Process, LoadsTextAndData)
{
    Assembler a;
    a.addi(1, ZeroReg, 7);
    a.halt();
    ProcessImage image;
    image.text = a.assemble(0x10000);
    image.vaLimit = 0x40000;
    image.dataWords.push_back({0x20000, 0x55aaULL});
    image.initIntRegs[5] = 999;

    PhysMem mem;
    FrameAllocator frames;
    Process proc(image, 3, mem, frames);

    EXPECT_EQ(proc.asn(), 3);
    EXPECT_EQ(proc.entry(), 0x10000u);
    ArchState state = proc.initialState();
    EXPECT_EQ(state.readInt(5), 999u);
    EXPECT_EQ(state.pc, 0x10000u);
    EXPECT_EQ(state.readPriv(PrivReg::Ptbr), proc.space().ptbr());

    // Text is fetchable; data is in place.
    EXPECT_EQ(proc.fetchWord(0x10000), image.text.words[0]);
    auto pa = proc.space().translate(0x20000);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(mem.read64(*pa), 0x55aaULL);
}

TEST(Process, FetchOfUnmappedReturnsZero)
{
    Assembler a;
    a.halt();
    ProcessImage image;
    image.text = a.assemble(0x10000);
    image.vaLimit = 0x40000;
    PhysMem mem;
    FrameAllocator frames;
    Process proc(image, 1, mem, frames);
    EXPECT_EQ(proc.fetchWord(0x30000), 0u);
}

} // anonymous namespace
