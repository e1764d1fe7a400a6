/**
 * @file
 * Architectural register state for one hardware context, and the
 * ExecContext concept: the machine-state access the shared instruction
 * emulator needs. Both the functional reference machine and the timing
 * core's dispatch context model ExecContext; the emulator is a function
 * template over it (emulator.hh), so every access is a direct, inlinable
 * call and the instruction semantics still live in exactly one place.
 */

#ifndef ZMT_KERNEL_ARCHSTATE_HH
#define ZMT_KERNEL_ARCHSTATE_HH

#include <array>
#include <concepts>
#include <cstdint>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace zmt
{

/** Architectural registers of one hardware thread context. */
struct ArchState
{
    std::array<uint64_t, isa::NumIntRegs> intRegs{};
    std::array<uint64_t, isa::NumFpRegs> fpRegs{}; //!< IEEE-754 bits
    std::array<uint64_t, size_t(isa::PrivReg::NumPrivRegs)> privRegs{};
    Addr pc = 0;
    bool palMode = false; //!< executing privileged handler code

    uint64_t
    readInt(unsigned reg) const
    {
        return reg == isa::ZeroReg ? 0 : intRegs[reg];
    }

    void
    writeInt(unsigned reg, uint64_t value)
    {
        if (reg != isa::ZeroReg)
            intRegs[reg] = value;
    }

    uint64_t
    readFp(unsigned reg) const
    {
        return reg == isa::ZeroReg ? 0 : fpRegs[reg];
    }

    void
    writeFp(unsigned reg, uint64_t value)
    {
        if (reg != isa::ZeroReg)
            fpRegs[reg] = value;
    }

    uint64_t readPriv(isa::PrivReg pr) const { return privRegs[size_t(pr)]; }
    void writePriv(isa::PrivReg pr, uint64_t v) { privRegs[size_t(pr)] = v; }
};

/**
 * Machine-state access used by the emulator. Models: the functional
 * reference machine (FuncMachine) and the timing core's speculative
 * dispatch-time context.
 *
 *  - readIntReg/writeIntReg, readFpReg/writeFpReg (IEEE-754 bits),
 *    readPrivReg/writePrivReg: register files.
 *  - pc(): PC of the instruction being executed.
 *  - readMem/writeMem: in user mode the address is virtual; in PAL mode
 *    it is physical (KSEG-style direct mapping, as in Alpha PALcode).
 *    Loads of unmapped user addresses return 0 (wrong-path garbage).
 *  - setNextPc: control transfer, only called when taken.
 *  - tlbWrite, returnFromException, raiseHardException, halt:
 *    privileged effects.
 */
template <typename C>
concept ExecContext = requires(C &ctx, const C &cctx, unsigned reg,
                               uint64_t value, isa::PrivReg pr, Addr addr,
                               unsigned size) {
    { ctx.readIntReg(reg) } -> std::same_as<uint64_t>;
    ctx.writeIntReg(reg, value);
    { ctx.readFpReg(reg) } -> std::same_as<uint64_t>;
    ctx.writeFpReg(reg, value);
    { ctx.readPrivReg(pr) } -> std::same_as<uint64_t>;
    ctx.writePrivReg(pr, value);
    { cctx.pc() } -> std::same_as<Addr>;
    { ctx.readMem(addr, size) } -> std::same_as<uint64_t>;
    ctx.writeMem(addr, size, value);
    ctx.setNextPc(addr);
    ctx.tlbWrite(value, value);
    ctx.returnFromException();
    ctx.raiseHardException();
    ctx.halt();
};

} // namespace zmt

#endif // ZMT_KERNEL_ARCHSTATE_HH
