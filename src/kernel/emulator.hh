/**
 * @file
 * The single source of truth for ZIA instruction semantics.
 *
 * The interpreter is a set of function templates over an ExecContext
 * model (archstate.hh). FuncMachine and the timing core's dispatch
 * context each instantiate it, so register and memory accesses are
 * direct calls the compiler can inline instead of virtual calls, while
 * the semantics stay written once, here.
 *
 * They are also the only description of an instruction's operands: the
 * timing core links each register these functions read to its
 * in-flight writer and renames the one they write (core/dispatch.cc).
 * So which registers an instruction reads must not depend on operand
 * values: read every source before testing it (a zero divisor, a
 * not-taken branch), or the dependence is lost.
 */

#ifndef ZMT_KERNEL_EMULATOR_HH
#define ZMT_KERNEL_EMULATOR_HH

#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "isa/inst.hh"
#include "kernel/archstate.hh"

namespace zmt
{

namespace emul
{

inline double asF(uint64_t bits) { return std::bit_cast<double>(bits); }
inline uint64_t asU(double value) { return std::bit_cast<uint64_t>(value); }
inline int64_t s64(uint64_t v) { return int64_t(v); }

} // namespace emul

/** Access size in bytes for a memory instruction. */
inline unsigned
memAccessSize(const isa::DecodedInst &inst)
{
    using isa::Opcode;
    switch (inst.op) {
      case Opcode::Ldq:
      case Opcode::Stq:
        return 8;
      case Opcode::Ldl:
      case Opcode::Stl:
        return 4;
      default:
        panic("memAccessSize on non-memory op %s", inst.info->mnemonic);
        return 0;
    }
}

/** Effective address of a load/store (reads the base register). */
template <ExecContext Ctx>
Addr
effectiveAddr(const isa::DecodedInst &inst, Ctx &ctx)
{
    return ctx.readIntReg(inst.rb) + int64_t(inst.imm);
}

/**
 * Branch resolution: whether the branch is taken and where it goes.
 * @return {taken, target}
 */
template <ExecContext Ctx>
std::pair<bool, Addr>
branchOutcome(const isa::DecodedInst &inst, Ctx &ctx)
{
    using emul::s64;
    using isa::Opcode;
    const Addr fallthrough = ctx.pc() + 4;
    const Addr rel_target = fallthrough + int64_t(inst.imm) * 4;
    auto a = [&] { return ctx.readIntReg(inst.ra); };

    switch (inst.op) {
      case Opcode::Br:
      case Opcode::Bsr:
        return {true, rel_target};
      case Opcode::Beq:
        return {a() == 0, rel_target};
      case Opcode::Bne:
        return {a() != 0, rel_target};
      case Opcode::Blt:
        return {s64(a()) < 0, rel_target};
      case Opcode::Bge:
        return {s64(a()) >= 0, rel_target};
      case Opcode::Blbc:
        return {(a() & 1) == 0, rel_target};
      case Opcode::Blbs:
        return {(a() & 1) == 1, rel_target};
      case Opcode::Jsr:
        return {true, ctx.readIntReg(inst.rb)};
      case Opcode::Ret:
      case Opcode::Jmp:
        return {true, a()};
      case Opcode::Rfe:
        // Target resolved by the exception machinery, not here.
        return {true, 0};
      default:
        panic("branchOutcome on non-branch %s", inst.info->mnemonic);
        return {false, 0};
    }
}

/**
 * Execute one instruction against the given context. The context's
 * pc() is the instruction's own PC; sequential fallthrough is the
 * caller's job (only taken control transfers call setNextPc).
 */
template <ExecContext Ctx>
void
executeInst(const isa::DecodedInst &inst, Ctx &ctx)
{
    using emul::asF;
    using emul::asU;
    using emul::s64;
    using isa::Opcode;
    using isa::PrivReg;
    panic_if(!inst.valid(), "executing invalid instruction");

    auto rd = [&](unsigned r) { return ctx.readIntReg(r); };
    auto fa = [&](unsigned r) { return asF(ctx.readFpReg(r)); };

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        ctx.halt();
        break;

      case Opcode::Add:
        ctx.writeIntReg(inst.rc, rd(inst.ra) + rd(inst.rb));
        break;
      case Opcode::Sub:
        ctx.writeIntReg(inst.rc, rd(inst.ra) - rd(inst.rb));
        break;
      case Opcode::And:
        ctx.writeIntReg(inst.rc, rd(inst.ra) & rd(inst.rb));
        break;
      case Opcode::Or:
        ctx.writeIntReg(inst.rc, rd(inst.ra) | rd(inst.rb));
        break;
      case Opcode::Xor:
        ctx.writeIntReg(inst.rc, rd(inst.ra) ^ rd(inst.rb));
        break;
      case Opcode::Sll:
        ctx.writeIntReg(inst.rc, rd(inst.ra) << (rd(inst.rb) & 63));
        break;
      case Opcode::Srl:
        ctx.writeIntReg(inst.rc, rd(inst.ra) >> (rd(inst.rb) & 63));
        break;
      case Opcode::Sra:
        ctx.writeIntReg(inst.rc,
                        uint64_t(s64(rd(inst.ra)) >> (rd(inst.rb) & 63)));
        break;
      case Opcode::Cmpeq:
        ctx.writeIntReg(inst.rc, rd(inst.ra) == rd(inst.rb) ? 1 : 0);
        break;
      case Opcode::Cmplt:
        ctx.writeIntReg(inst.rc, s64(rd(inst.ra)) < s64(rd(inst.rb)) ? 1 : 0);
        break;
      case Opcode::Cmple:
        ctx.writeIntReg(inst.rc,
                        s64(rd(inst.ra)) <= s64(rd(inst.rb)) ? 1 : 0);
        break;
      case Opcode::Mul:
        ctx.writeIntReg(inst.rc, rd(inst.ra) * rd(inst.rb));
        break;
      case Opcode::Div: {
        // Division by zero yields zero rather than trapping; the
        // synthetic workloads rely on total functions.
        int64_t a = s64(rd(inst.ra)), b = s64(rd(inst.rb));
        ctx.writeIntReg(inst.rc, b ? uint64_t(a / b) : 0);
        break;
      }

      case Opcode::Addi:
        ctx.writeIntReg(inst.ra, rd(inst.rb) + int64_t(inst.imm));
        break;
      case Opcode::Andi:
        ctx.writeIntReg(inst.ra, rd(inst.rb) & uint64_t(uint16_t(inst.imm)));
        break;
      case Opcode::Ori:
        ctx.writeIntReg(inst.ra, rd(inst.rb) | uint64_t(uint16_t(inst.imm)));
        break;
      case Opcode::Xori:
        ctx.writeIntReg(inst.ra, rd(inst.rb) ^ uint64_t(uint16_t(inst.imm)));
        break;
      case Opcode::Slli:
        ctx.writeIntReg(inst.ra, rd(inst.rb) << (inst.imm & 63));
        break;
      case Opcode::Srli:
        ctx.writeIntReg(inst.ra, rd(inst.rb) >> (inst.imm & 63));
        break;
      case Opcode::Cmplti:
        ctx.writeIntReg(inst.ra,
                        s64(rd(inst.rb)) < int64_t(inst.imm) ? 1 : 0);
        break;
      case Opcode::Lui:
        ctx.writeIntReg(inst.ra, uint64_t(uint16_t(inst.imm)) << 16);
        break;

      case Opcode::Fadd:
        ctx.writeFpReg(inst.rc, asU(fa(inst.ra) + fa(inst.rb)));
        break;
      case Opcode::Fsub:
        ctx.writeFpReg(inst.rc, asU(fa(inst.ra) - fa(inst.rb)));
        break;
      case Opcode::Fmul:
        ctx.writeFpReg(inst.rc, asU(fa(inst.ra) * fa(inst.rb)));
        break;
      case Opcode::Fdiv: {
        double a = fa(inst.ra), b = fa(inst.rb);
        ctx.writeFpReg(inst.rc, asU(b != 0.0 ? a / b : 0.0));
        break;
      }
      case Opcode::Fsqrt: {
        double a = fa(inst.ra);
        ctx.writeFpReg(inst.rc, asU(a >= 0.0 ? std::sqrt(a) : 0.0));
        break;
      }
      case Opcode::Fcmplt:
        ctx.writeFpReg(inst.rc, fa(inst.ra) < fa(inst.rb) ? asU(1.0)
                                                          : asU(0.0));
        break;
      case Opcode::Itof:
        ctx.writeFpReg(inst.rc, asU(double(s64(rd(inst.ra)))));
        break;
      case Opcode::Ifmov:
        ctx.writeFpReg(inst.rc, rd(inst.ra)); // raw bit move
        break;
      case Opcode::Fimov:
        ctx.writeIntReg(inst.rc, ctx.readFpReg(inst.ra));
        break;
      case Opcode::Ftoi:
        ctx.writeIntReg(inst.rc, uint64_t(int64_t(fa(inst.ra))));
        break;

      case Opcode::Ldq:
        ctx.writeIntReg(inst.ra, ctx.readMem(effectiveAddr(inst, ctx), 8));
        break;
      case Opcode::Ldl: {
        uint64_t v = ctx.readMem(effectiveAddr(inst, ctx), 4);
        ctx.writeIntReg(inst.ra, uint64_t(int64_t(int32_t(uint32_t(v)))));
        break;
      }
      case Opcode::Stq:
        ctx.writeMem(effectiveAddr(inst, ctx), 8, rd(inst.ra));
        break;
      case Opcode::Stl:
        ctx.writeMem(effectiveAddr(inst, ctx), 4,
                     uint64_t(uint32_t(rd(inst.ra))));
        break;

      case Opcode::Br:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Blbc:
      case Opcode::Blbs:
      case Opcode::Ret:
      case Opcode::Jmp: {
        auto [taken, target] = branchOutcome(inst, ctx);
        if (taken)
            ctx.setNextPc(target);
        break;
      }
      case Opcode::Jsr: {
        Addr target = ctx.readIntReg(inst.rb);
        ctx.writeIntReg(inst.ra, ctx.pc() + 4);
        ctx.setNextPc(target);
        break;
      }
      case Opcode::Bsr: {
        auto [taken, target] = branchOutcome(inst, ctx);
        ctx.writeIntReg(inst.ra, ctx.pc() + 4);
        if (taken)
            ctx.setNextPc(target);
        break;
      }

      case Opcode::Mfpr:
        ctx.writeIntReg(inst.ra, ctx.readPrivReg(PrivReg(inst.imm)));
        break;
      case Opcode::Mtpr:
        ctx.writePrivReg(PrivReg(inst.imm), ctx.readIntReg(inst.ra));
        break;
      case Opcode::Tlbwr:
        ctx.tlbWrite(ctx.readPrivReg(PrivReg::TlbTag),
                     ctx.readPrivReg(PrivReg::TlbData));
        break;
      case Opcode::Rfe:
        ctx.returnFromException();
        break;
      case Opcode::Hardexc:
        ctx.raiseHardException();
        break;
      case Opcode::Emulwr:
        // Commit the emulated instruction's architecturally defined
        // result to its destination register (paper Section 6). The
        // destination index and result bits were staged by the
        // exception hardware in privileged registers.
        ctx.writeFpReg(unsigned(ctx.readPrivReg(PrivReg::EmulDest)) & 31,
                       ctx.readPrivReg(PrivReg::EmulResult));
        break;

      case Opcode::NumOpcodes:
        panic("executing NumOpcodes sentinel");
    }
}

} // namespace zmt

#endif // ZMT_KERNEL_EMULATOR_HH
