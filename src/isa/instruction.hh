/**
 * @file
 * Decoded instruction representation, 32-bit binary encoding and
 * decoding, and ISA-level pattern helpers (register-move detection).
 *
 * Binary format follows classic MIPS field layout:
 *   R-form:  op[31:26]=0  rs[25:21] rt[20:16] rd[15:11] sh[10:6] fn[5:0]
 *   I-form:  op[31:26]    rs[25:21] rt[20:16] imm16[15:0]
 *   J-form:  op[31:26]    target26[25:0]        (word address)
 * Conditional branch immediates are signed word offsets relative to
 * the address of the *next* instruction. There are no delay slots.
 */

#ifndef TCFILL_ISA_INSTRUCTION_HH
#define TCFILL_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace tcfill
{

/** Number of architectural integer registers; R0 is hard-wired zero. */
inline constexpr unsigned kNumArchRegs = 32;

/** Conventional register roles used by the assembler and runtime. */
inline constexpr RegIndex kRegZero = 0;
inline constexpr RegIndex kRegSP = 29;
inline constexpr RegIndex kRegRA = 31;

/** Register name for diagnostics ("r0".."r31"). */
std::string regName(RegIndex r);

/**
 * A decoded instruction with normalized operand roles.
 *
 * Operand convention (independent of binary field placement):
 *  - @c dest: destination register, or kNoReg.
 *  - @c src1: first source (base register for memory ops).
 *  - @c src2: second source (index register for LWX/SWX; compare
 *    operand for BEQ/BNE).
 *  - @c src3: store-data register for stores (stores are the only
 *    three-source instructions, and only SWX actually uses all three).
 *  - @c imm:  sign-extended immediate / displacement / branch offset
 *    (in instructions) / absolute jump target (word address).
 *  - @c shamt: shift amount for immediate shifts.
 */
struct Instruction
{
    static constexpr RegIndex kNoReg = 0xff;

    Op op = Op::NOP;
    RegIndex dest = kNoReg;
    RegIndex src1 = kNoReg;
    RegIndex src2 = kNoReg;
    RegIndex src3 = kNoReg;
    std::int32_t imm = 0;
    std::uint8_t shamt = 0;

    bool hasDest() const { return dest != kNoReg && dest != kRegZero; }

    /** Number of register sources actually used (0..3). */
    unsigned
    numSrcs() const
    {
        return (src1 != kNoReg ? 1u : 0u) + (src2 != kNoReg ? 1u : 0u) +
               (src3 != kNoReg ? 1u : 0u);
    }

    /** The i-th used source register (i < numSrcs()). */
    RegIndex
    srcReg(unsigned i) const
    {
        std::array<RegIndex, 3> s{src1, src2, src3};
        unsigned seen = 0;
        for (RegIndex r : s) {
            if (r != kNoReg) {
                if (seen == i)
                    return r;
                ++seen;
            }
        }
        return kNoReg;
    }

    bool isLoad() const { return tcfill::isLoad(op); }
    bool isStore() const { return tcfill::isStore(op); }
    bool isMem() const { return tcfill::isMem(op); }
    bool isCondBranch() const { return tcfill::isCondBranch(op); }
    bool isCall() const { return tcfill::isCall(op); }
    bool isIndirect() const { return tcfill::isIndirect(op); }
    bool isSerializing() const { return tcfill::isSerializing(op); }
    bool isControl() const { return tcfill::isControl(op); }

    /** Ends a basic block: a control transfer or serializing. */
    bool endsBlock() const { return isControl() || isSerializing(); }

    /** A return is JR through the link register by convention. */
    bool isReturn() const { return op == Op::JR && src1 == kRegRA; }

    /** Any control-flow instruction that may redirect fetch. */
    bool
    changesControlFlow() const
    {
        return isControl();
    }

    bool operator==(const Instruction &o) const = default;
};

/** Encode a decoded instruction into its 32-bit binary form. */
Word encode(const Instruction &inst);

/** Decode a 32-bit binary word. Unknown encodings decode to NOP. */
Instruction decode(Word raw);

/**
 * If @p inst is semantically a register-to-register move, return the
 * source register being copied. Recognized idioms (paper §4.2): the
 * canonical ADDI Rx <- Ry + 0, plus the R0-based forms ADD/OR/XOR
 * Rx <- Ry op R0, ORI/XORI Rx <- Ry op 0, and SUB Rx <- Ry - R0.
 * Moves to R0 or with no real destination are not moves (dead).
 * Returns std::nullopt otherwise.
 *
 * Note: a move *from* R0 (materializing zero) also qualifies; the
 * rename logic aliases the destination to the hard-wired zero
 * register.
 */
inline std::optional<RegIndex>
moveSource(const Instruction &in)
{
    if (!in.hasDest())
        return std::nullopt;

    switch (in.op) {
      case Op::ADDI:
      case Op::ORI:
      case Op::XORI:
        if (in.imm == 0)
            return in.src1;
        return std::nullopt;
      case Op::ADD:
      case Op::OR:
      case Op::XOR:
        if (in.src2 == kRegZero)
            return in.src1;
        if (in.src1 == kRegZero)
            return in.src2;
        return std::nullopt;
      case Op::SUB:
        if (in.src2 == kRegZero)
            return in.src1;
        return std::nullopt;
      case Op::SLLI:
      case Op::SRLI:
      case Op::SRAI:
        if (in.shamt == 0)
            return in.src1;
        return std::nullopt;
      default:
        return std::nullopt;
    }
}

/** One-line human-readable disassembly, e.g. "addi r3, r5, 42". */
std::string disassemble(const Instruction &inst);

/** Disassemble with PC context so branch targets print absolutely. */
std::string disassemble(const Instruction &inst, Addr pc);

} // namespace tcfill

#endif // TCFILL_ISA_INSTRUCTION_HH
