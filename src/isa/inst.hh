/**
 * @file
 * ZIA instruction word encoding, decoding, and disassembly.
 */

#ifndef ZMT_ISA_INST_HH
#define ZMT_ISA_INST_HH

#include <cstdint>
#include <string>

#include "isa/opcodes.hh"

namespace zmt::isa
{

/** Raw 32-bit instruction word. */
using InstWord = uint32_t;

/** Fully decoded instruction, shared by functional and timing models. */
struct DecodedInst
{
    Opcode op = Opcode::Nop;
    uint8_t ra = 0;      //!< first source / imm-format destination
    uint8_t rb = 0;      //!< second source / base register
    uint8_t rc = 0;      //!< register-format destination
    int16_t imm = 0;     //!< immediate / branch displacement

    const OpInfo *info = nullptr;

    bool valid() const { return info != nullptr; }

    /** Destination register index, or -1 if none. */
    int
    destReg() const
    {
        if (!info->writesReg)
            return -1;
        int d = info->isImmFormat || info->isIndirect || info->isCall
                    ? ra : rc;
        // R31/F31 is the zero register: writes are discarded.
        return unsigned(d) == ZeroReg ? -1 : d;
    }
};

/**
 * Encode a decoded instruction into its 32-bit word.
 * Field layout is documented in opcodes.hh.
 */
InstWord encode(const DecodedInst &inst);

/** Decode a 32-bit word. Unknown opcodes decode as invalid (no info). */
DecodedInst decode(InstWord word);

/** Human-readable disassembly, e.g. "add r1, r2 -> r3". */
std::string disassemble(const DecodedInst &inst);

// Convenience constructors used by the assembler and tests. Immediate
// format places the destination in ra per the encoding note.
DecodedInst makeReg(Opcode op, unsigned ra, unsigned rb, unsigned rc);
DecodedInst makeImm(Opcode op, unsigned ra, unsigned rb, int16_t imm);
DecodedInst makeNullary(Opcode op);

} // namespace zmt::isa

#endif // ZMT_ISA_INST_HH
