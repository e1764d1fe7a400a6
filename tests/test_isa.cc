/**
 * @file
 * ISA tests: opcode metadata invariants, encode/decode round trips
 * (property-style over all opcodes and random fields), disassembly,
 * and the assembler (labels, displacements, constant materialization,
 * label-address fixups).
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "isa/assembler.hh"
#include "kernel/emulator.hh"
#include "isa/inst.hh"

namespace
{

using namespace zmt;
using namespace zmt::isa;

std::vector<Opcode>
allOpcodes()
{
    std::vector<Opcode> ops;
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i)
        ops.push_back(Opcode(i));
    return ops;
}

// ---------------------------------------------------------------------
// Opcode metadata invariants, parameterized over every opcode.
// ---------------------------------------------------------------------

class OpcodeInfoTest : public ::testing::TestWithParam<Opcode>
{};

TEST_P(OpcodeInfoTest, HasMnemonic)
{
    const OpInfo &info = opInfo(GetParam());
    ASSERT_NE(info.mnemonic, nullptr);
    EXPECT_GT(std::string(info.mnemonic).size(), 0u);
}

TEST_P(OpcodeInfoTest, MemOpsAreImmFormat)
{
    const OpInfo &info = opInfo(GetParam());
    if (info.isLoad || info.isStore) {
        EXPECT_TRUE(info.isImmFormat);
    }
}

TEST_P(OpcodeInfoTest, LoadsWriteARegister)
{
    const OpInfo &info = opInfo(GetParam());
    if (info.isLoad) {
        EXPECT_TRUE(info.writesReg);
    }
    if (info.isStore) {
        EXPECT_FALSE(info.writesReg);
    }
}

TEST_P(OpcodeInfoTest, ConditionalImpliesBranch)
{
    const OpInfo &info = opInfo(GetParam());
    if (info.isConditional || info.isIndirect || info.isCall ||
        info.isReturn) {
        EXPECT_TRUE(info.isBranch);
    }
}

TEST_P(OpcodeInfoTest, OpClassMatchesLatencyTable)
{
    const OpInfo &info = opInfo(GetParam());
    // Every op class must have a defined, nonzero latency.
    EXPECT_GE(opLatency(info.opClass), 1u);
}

TEST_P(OpcodeInfoTest, EncodeDecodeRoundTrip)
{
    Opcode op = GetParam();
    const OpInfo &info = opInfo(op);
    Rng rng(uint64_t(op) + 1);

    for (int trial = 0; trial < 32; ++trial) {
        DecodedInst inst;
        inst.op = op;
        inst.info = &info;
        inst.ra = uint8_t(rng.below(32));
        if (info.isImmFormat) {
            inst.rb = uint8_t(rng.below(32));
            inst.imm = int16_t(rng.next());
        } else {
            inst.rb = uint8_t(rng.below(32));
            inst.rc = uint8_t(rng.below(32));
        }

        DecodedInst out = decode(encode(inst));
        ASSERT_TRUE(out.valid());
        EXPECT_EQ(out.op, inst.op);
        EXPECT_EQ(out.ra, inst.ra);
        EXPECT_EQ(out.rb, inst.rb);
        if (info.isImmFormat)
            EXPECT_EQ(out.imm, inst.imm);
        else
            EXPECT_EQ(out.rc, inst.rc);
    }
}

TEST_P(OpcodeInfoTest, DisassemblyMentionsMnemonic)
{
    Opcode op = GetParam();
    DecodedInst inst = opInfo(op).isImmFormat ? makeImm(op, 1, 2, 3)
                                              : makeNullary(op);
    if (!opInfo(op).isImmFormat) {
        inst.ra = 1;
        inst.rb = 2;
        inst.rc = 3;
    }
    EXPECT_NE(disassemble(inst).find(opInfo(op).mnemonic),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeInfoTest,
                         ::testing::ValuesIn(allOpcodes()));

// ---------------------------------------------------------------------
// Decode robustness.
// ---------------------------------------------------------------------

TEST(Decode, UnknownOpcodeIsInvalid)
{
    // Opcode field beyond NumOpcodes must not decode.
    InstWord word = InstWord(63) << 26;
    EXPECT_FALSE(decode(word).valid());
}

TEST(Decode, ZeroWordIsNop)
{
    DecodedInst inst = decode(0);
    ASSERT_TRUE(inst.valid());
    EXPECT_EQ(inst.op, Opcode::Nop);
}

TEST(DecodedInst, DestRegZeroIsDiscarded)
{
    // Writes to r31 are architectural no-ops: destReg reports none.
    DecodedInst inst = makeImm(Opcode::Addi, ZeroReg, 2, 5);
    EXPECT_EQ(inst.destReg(), -1);
    DecodedInst inst2 = makeImm(Opcode::Addi, 4, 2, 5);
    EXPECT_EQ(inst2.destReg(), 4);
}

TEST(DecodedInst, RegFormatDest)
{
    DecodedInst inst = makeReg(Opcode::Add, 1, 2, 3);
    EXPECT_EQ(inst.destReg(), 3);
    DecodedInst jsr = makeReg(Opcode::Jsr, 26, 27, 0);
    EXPECT_EQ(jsr.destReg(), 26); // call writes the link register (ra)
}

// ---------------------------------------------------------------------
// Assembler.
// ---------------------------------------------------------------------

TEST(Assembler, EmptyProgram)
{
    Assembler a;
    Program prog = a.assemble(0x1000);
    EXPECT_EQ(prog.size(), 0u);
    EXPECT_EQ(prog.entry(), 0x1000u);
    EXPECT_EQ(prog.end(), 0x1000u);
}

TEST(Assembler, BackwardBranchDisplacement)
{
    Assembler a;
    a.label("top");
    a.nop();
    a.nop();
    a.br("top");
    Program prog = a.assemble(0x1000);
    ASSERT_EQ(prog.size(), 3u);
    DecodedInst br = decode(prog.words[2]);
    // Displacement relative to pc+4: target index 0, branch index 2.
    EXPECT_EQ(br.imm, -3);
}

TEST(Assembler, ForwardBranchDisplacement)
{
    Assembler a;
    a.beq(1, "skip");
    a.nop();
    a.nop();
    a.label("skip");
    a.halt();
    Program prog = a.assemble(0);
    DecodedInst beq = decode(prog.words[0]);
    EXPECT_EQ(beq.imm, 2);
    EXPECT_EQ(prog.labelAddr("skip"), 12u);
}

TEST(Assembler, LabelAddresses)
{
    Assembler a;
    a.nop().nop();
    a.label("here");
    a.halt();
    Program prog = a.assemble(0x2000);
    EXPECT_EQ(prog.labelAddr("here"), 0x2008u);
}

TEST(Assembler, LiLabelMaterializesAddress)
{
    Assembler a;
    a.liLabel(5, "target");
    a.nop();
    a.label("target");
    a.halt();
    Program prog = a.assemble(0x10000);
    // lui imm = addr >> 16, ori imm = addr & 0xffff.
    Addr target = prog.labelAddr("target");
    DecodedInst lui = decode(prog.words[0]);
    DecodedInst ori = decode(prog.words[1]);
    EXPECT_EQ(uint16_t(lui.imm), uint16_t(target >> 16));
    EXPECT_EQ(uint16_t(ori.imm), uint16_t(target & 0xffff));
}

class LiValueTest : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LiValueTest, EncodesAndDecodesWithoutFatal)
{
    // li emits a sequence; functional correctness of the sequence is
    // validated in the emulator tests. Here: it assembles and all
    // words decode.
    Assembler a;
    a.li(3, GetParam());
    Program prog = a.assemble(0);
    EXPECT_GE(prog.size(), 1u);
    for (InstWord word : prog.words)
        EXPECT_TRUE(decode(word).valid());
}

INSTANTIATE_TEST_SUITE_P(
    Values, LiValueTest,
    ::testing::Values(0ull, 1ull, 0x7fffull, 0x8000ull, 0xffffull,
                      0x10000ull, 0xdeadbeefull, 0xffffffffull,
                      0x100000000ull, 0x0123456789abcdefull,
                      0xffffffffffffffffull));

TEST(Assembler, ChainingReturnsSelf)
{
    Assembler a;
    a.nop().addi(1, 2, 3).halt();
    EXPECT_EQ(a.size(), 3u);
}

TEST(Program, UnknownLabelIsFatal)
{
    Assembler a;
    a.nop();
    Program prog = a.assemble(0);
    EXPECT_EXIT(prog.labelAddr("missing"),
                ::testing::ExitedWithCode(1), "unknown label");
}

TEST(Assembler, UndefinedBranchTargetIsFatal)
{
    Assembler a;
    a.br("nowhere");
    EXPECT_EXIT(a.assemble(0), ::testing::ExitedWithCode(1),
                "undefined label");
}

TEST(Assembler, DuplicateLabelIsFatal)
{
    Assembler a;
    a.label("x");
    EXPECT_EXIT(a.label("x"), ::testing::ExitedWithCode(1),
                "duplicate label");
}


// ---------------------------------------------------------------------
// Property-based assembler/decoder round trips. Seeds are fixed
// compile-time constants (common/random.hh xorshift) — never wall
// clock — so a failure reproduces exactly.
// ---------------------------------------------------------------------

// Random programs pushed through the real Assembler: every emitted
// word must decode to a valid instruction that re-assembles to the
// identical word, and match the instruction originally emitted.
TEST(Assembler, RandomProgramRoundTrip)
{
    Rng rng(0x5eedf00dULL);
    for (int round = 0; round < 16; ++round) {
        Assembler a;
        std::vector<DecodedInst> emitted;
        for (int i = 0; i < 256; ++i) {
            Opcode op = Opcode(rng.below(uint64_t(Opcode::NumOpcodes)));
            const OpInfo &info = opInfo(op);
            DecodedInst inst;
            if (info.isImmFormat) {
                inst = makeImm(op, unsigned(rng.below(32)),
                               unsigned(rng.below(32)),
                               int16_t(rng.next()));
            } else {
                inst = makeReg(op, unsigned(rng.below(32)),
                               unsigned(rng.below(32)),
                               unsigned(rng.below(32)));
            }
            a.emit(inst);
            emitted.push_back(inst);
        }
        Program prog = a.assemble(0x10000);
        ASSERT_EQ(prog.words.size(), emitted.size());
        for (size_t i = 0; i < prog.words.size(); ++i) {
            DecodedInst out = decode(prog.words[i]);
            ASSERT_TRUE(out.valid());
            // decode -> re-assemble is byte-identical...
            EXPECT_EQ(encode(out), prog.words[i]);
            // ...and the assembler encoded what we handed it.
            EXPECT_EQ(encode(out), encode(emitted[i]));
        }
    }
}

// Arbitrary 32-bit words: decode either rejects the word (opcode field
// out of range — the only reason to reject) or produces an instruction
// whose re-encoding is the canonical form: imm-format words use all 32
// bits and round-trip exactly; reg-format words have don't-care bits
// [10:0] which re-encode as zero. One decode/encode pass must reach a
// fixed point.
TEST(Decode, RandomWordCanonicalRoundTrip)
{
    Rng rng(0xdec0dedec0deULL);
    uint64_t valid_words = 0;
    for (int i = 0; i < 200000; ++i) {
        InstWord word = InstWord(rng.next());
        DecodedInst di = decode(word);
        if (!di.valid()) {
            EXPECT_GE((word >> 26) & 0x3f,
                      unsigned(Opcode::NumOpcodes));
            continue;
        }
        ++valid_words;
        InstWord canon = encode(di);
        InstWord expect = opInfo(di.op).isImmFormat
                              ? word
                              : (word & ~InstWord(0x7ff));
        ASSERT_EQ(canon, expect);
        DecodedInst di2 = decode(canon);
        ASSERT_TRUE(di2.valid());
        EXPECT_EQ(encode(di2), canon);
        EXPECT_EQ(di2.op, di.op);
        EXPECT_EQ(di2.ra, di.ra);
        EXPECT_EQ(di2.rb, di.rb);
        EXPECT_EQ(di2.rc, di.rc);
        EXPECT_EQ(di2.imm, di.imm);
    }
    // The opcode space is dense enough that a uniform fuzz must hit
    // plenty of valid encodings; guard against a silent all-invalid run.
    EXPECT_GT(valid_words, 50000u);
}

TEST(MemAccessSize, QuadAndLongword)
{
    using zmt::memAccessSize;
    EXPECT_EQ(memAccessSize(makeImm(Opcode::Ldq, 1, 2, 0)), 8u);
    EXPECT_EQ(memAccessSize(makeImm(Opcode::Stq, 1, 2, 0)), 8u);
    EXPECT_EQ(memAccessSize(makeImm(Opcode::Ldl, 1, 2, 0)), 4u);
    EXPECT_EQ(memAccessSize(makeImm(Opcode::Stl, 1, 2, 0)), 4u);
}

} // anonymous namespace
