#include "arch/executor.hh"

#include "common/logging.hh"

namespace tcfill
{

Executor::Executor(const Program &prog) : prog_(prog)
{
    // Load text.
    for (std::size_t i = 0; i < prog.text.size(); ++i)
        mem_.writeWord(prog.textBase + i * 4, prog.text[i]);
    // Load initialized data.
    for (const auto &seg : prog.data)
        mem_.writeBlock(seg.base, seg.bytes.data(), seg.bytes.size());

    state_.pc = prog.entry;
    state_.write(kRegSP, static_cast<std::uint32_t>(prog.stackTop));
}

void
Executor::rebuildDecodeCache()
{
    decoded_.resize(prog_.text.size());
    raw_.resize(prog_.text.size());
    target_.assign(prog_.text.size(), 0);
    for (std::size_t i = 0; i < decoded_.size(); ++i) {
        const Addr pc = prog_.textBase + i * 4;
        Instruction in = decode(mem_.readWord(pc));
        raw_[i] = in;
        // Normalize absent sources to R0 (hardwired zero) so the fast
        // path reads operands unconditionally; architecturally
        // equivalent since reading kNoReg was mapped to R0 anyway.
        if (in.src1 == Instruction::kNoReg)
            in.src1 = kRegZero;
        if (in.src2 == Instruction::kNoReg)
            in.src2 = kRegZero;
        if (in.src3 == Instruction::kNoReg)
            in.src3 = kRegZero;
        if (in.isCondBranch()) {
            target_[i] = pc + 4 +
                (static_cast<Addr>(static_cast<std::int64_t>(in.imm)) << 2);
        } else if (in.op == Op::J || in.op == Op::JAL) {
            target_[i] =
                static_cast<Addr>(static_cast<std::uint32_t>(in.imm)) * 4;
        }
        decoded_[i] = in;
    }
    decode_stale_ = false;
}

void
Executor::restoreState(const ArchState &st, InstSeqNum seq, bool halted)
{
    state_ = st;
    seq_ = seq;
    halted_ = halted;
}

template <bool kRecord>
inline bool
Executor::stepImpl(ExecRecord *rec, const FetchView &fv, Addr &pc_io)
{
    panic_if(halted_, "Executor::step() after halt");

    const Addr pc = pc_io;
    std::size_t fast_idx = 0;
    const Instruction *inp;
    if constexpr (kRecord) {
        // step() records the instruction exactly as decoded (absent
        // sources stay kNoReg), from fv's un-normalized image.
        fatal_if(!prog_.containsPc(pc),
                 "%s: PC 0x%llx escaped the text segment",
                 prog_.name.c_str(), static_cast<unsigned long long>(pc));
        inp = &fv.dec[(pc - fv.base) / 4];
    } else {
        // One unsigned compare covers both text-segment bounds: a PC
        // below textBase wraps to a huge index.
        fast_idx = (pc - fv.base) / 4;
        fatal_if(fast_idx >= fv.n,
                 "%s: PC 0x%llx escaped the text segment",
                 prog_.name.c_str(), static_cast<unsigned long long>(pc));
        inp = &fv.dec[fast_idx];
    }
    const Instruction &in = *inp;

    if constexpr (kRecord) {
        rec->seq = seq_;
        rec->pc = pc;
        rec->inst = in;
        ++seq_;
    }

    Addr next_pc = pc + 4;

    // The decode cache pre-normalizes absent sources to R0, so the
    // fast path reads operands without the kNoReg tests.
    std::uint32_t s1, s2, s3;
    if constexpr (kRecord) {
        s1 = state_.read(in.src1 == Instruction::kNoReg ? kRegZero
                                                        : in.src1);
        s2 = state_.read(in.src2 == Instruction::kNoReg ? kRegZero
                                                        : in.src2);
        s3 = state_.read(in.src3 == Instruction::kNoReg ? kRegZero
                                                        : in.src3);
    } else {
        s1 = state_.read(in.src1);
        s2 = state_.read(in.src2);
        s3 = state_.read(in.src3);
    }
    auto imm = static_cast<std::uint32_t>(in.imm);

    auto branch_to = [&](bool take) {
        if constexpr (kRecord) {
            rec->taken = take;
            if (take) {
                next_pc = pc + 4 +
                    (static_cast<Addr>(static_cast<std::int64_t>(in.imm))
                     << 2);
            }
        } else if (take) {
            next_pc = fv.tgt[fast_idx];
        }
    };
    auto eff_addr = [&](Addr ea) {
        if constexpr (kRecord)
            rec->effAddr = ea;
        return ea;
    };

    switch (in.op) {
      case Op::ADD:  state_.write(in.dest, s1 + s2); break;
      case Op::SUB:  state_.write(in.dest, s1 - s2); break;
      case Op::AND:  state_.write(in.dest, s1 & s2); break;
      case Op::OR:   state_.write(in.dest, s1 | s2); break;
      case Op::XOR:  state_.write(in.dest, s1 ^ s2); break;
      case Op::NOR:  state_.write(in.dest, ~(s1 | s2)); break;
      case Op::SLT:
        state_.write(in.dest, static_cast<std::int32_t>(s1) <
                              static_cast<std::int32_t>(s2) ? 1 : 0);
        break;
      case Op::SLTU: state_.write(in.dest, s1 < s2 ? 1 : 0); break;
      case Op::SLLV: state_.write(in.dest, s1 << (s2 & 31)); break;
      case Op::SRLV: state_.write(in.dest, s1 >> (s2 & 31)); break;
      case Op::SRAV:
        state_.write(in.dest, static_cast<std::uint32_t>(
            static_cast<std::int32_t>(s1) >> (s2 & 31)));
        break;
      case Op::MUL:  state_.write(in.dest, s1 * s2); break;
      case Op::DIV:
        state_.write(in.dest, s2 == 0 ? 0 : static_cast<std::uint32_t>(
            static_cast<std::int32_t>(s1) /
            static_cast<std::int32_t>(s2)));
        break;

      case Op::ADDI:  state_.write(in.dest, s1 + imm); break;
      case Op::SLTI:
        state_.write(in.dest, static_cast<std::int32_t>(s1) <
                              in.imm ? 1 : 0);
        break;
      case Op::SLTIU: state_.write(in.dest, s1 < imm ? 1 : 0); break;
      case Op::ANDI:  state_.write(in.dest, s1 & imm); break;
      case Op::ORI:   state_.write(in.dest, s1 | imm); break;
      case Op::XORI:  state_.write(in.dest, s1 ^ imm); break;
      case Op::LUI:   state_.write(in.dest, imm << 16); break;
      case Op::SLLI:  state_.write(in.dest, s1 << in.shamt); break;
      case Op::SRLI:  state_.write(in.dest, s1 >> in.shamt); break;
      case Op::SRAI:
        state_.write(in.dest, static_cast<std::uint32_t>(
            static_cast<std::int32_t>(s1) >> in.shamt));
        break;

      case Op::LB:
        state_.write(in.dest, static_cast<std::uint32_t>(
            static_cast<std::int8_t>(mem_.readByte(eff_addr(s1 + imm)))));
        break;
      case Op::LBU:
        state_.write(in.dest, mem_.readByte(eff_addr(s1 + imm)));
        break;
      case Op::LH:
        state_.write(in.dest, static_cast<std::uint32_t>(
            static_cast<std::int16_t>(mem_.readHalf(eff_addr(s1 + imm)))));
        break;
      case Op::LHU:
        state_.write(in.dest, mem_.readHalf(eff_addr(s1 + imm)));
        break;
      case Op::LW:
        state_.write(in.dest, mem_.readWord(eff_addr(s1 + imm)));
        break;
      case Op::LWX:
        state_.write(in.dest, mem_.readWord(eff_addr(s1 + s2)));
        break;
      case Op::SB: {
        const Addr ea = eff_addr(s1 + imm);
        mem_.writeByte(ea, static_cast<std::uint8_t>(s3));
        noteTextStore(ea);
        break;
      }
      case Op::SH: {
        const Addr ea = eff_addr(s1 + imm);
        mem_.writeHalf(ea, static_cast<std::uint16_t>(s3));
        noteTextStore(ea);
        break;
      }
      case Op::SW: {
        const Addr ea = eff_addr(s1 + imm);
        mem_.writeWord(ea, s3);
        noteTextStore(ea);
        break;
      }
      case Op::SWX: {
        const Addr ea = eff_addr(s1 + s2);
        mem_.writeWord(ea, s3);
        noteTextStore(ea);
        break;
      }

      case Op::BEQ:  branch_to(s1 == s2); break;
      case Op::BNE:  branch_to(s1 != s2); break;
      case Op::BLEZ: branch_to(static_cast<std::int32_t>(s1) <= 0); break;
      case Op::BGTZ: branch_to(static_cast<std::int32_t>(s1) > 0); break;
      case Op::BLTZ: branch_to(static_cast<std::int32_t>(s1) < 0); break;
      case Op::BGEZ: branch_to(static_cast<std::int32_t>(s1) >= 0); break;

      case Op::J:
        if constexpr (kRecord) {
            rec->taken = true;
            next_pc =
                static_cast<Addr>(static_cast<std::uint32_t>(in.imm)) * 4;
        } else {
            next_pc = fv.tgt[fast_idx];
        }
        break;
      case Op::JAL:
        if constexpr (kRecord) {
            rec->taken = true;
            next_pc =
                static_cast<Addr>(static_cast<std::uint32_t>(in.imm)) * 4;
        } else {
            next_pc = fv.tgt[fast_idx];
        }
        state_.write(kRegRA, static_cast<std::uint32_t>(pc + 4));
        break;
      case Op::JR:
        if constexpr (kRecord)
            rec->taken = true;
        next_pc = s1;
        break;
      case Op::JALR:
        if constexpr (kRecord)
            rec->taken = true;
        state_.write(in.dest, static_cast<std::uint32_t>(pc + 4));
        next_pc = s1;
        break;

      case Op::NOP:
      case Op::SYSCALL:
        break;
      case Op::HALT:
        halted_ = true;
        break;

      default:
        panic("executor: unhandled op %u", unsigned(in.op));
    }

    pc_io = next_pc;
    if constexpr (kRecord)
        rec->nextPc = next_pc;
    return in.endsBlock();
}

ExecRecord
Executor::step()
{
    if (decode_stale_)
        rebuildDecodeCache();
    ExecRecord rec;
    Addr pc = state_.pc;
    stepImpl<true>(&rec,
                   FetchView{raw_.data(), nullptr, raw_.size(),
                             prog_.textBase},
                   pc);
    state_.pc = pc;
    return rec;
}

bool
Executor::fastStep()
{
    if (decode_stale_)
        rebuildDecodeCache();
    const FetchView fv = fetchView();
    Addr pc = state_.pc;
    const bool ends_block = stepImpl<false>(nullptr, fv, pc);
    state_.pc = pc;
    ++seq_;
    return ends_block;
}

InstSeqNum
Executor::fastForward(InstSeqNum n)
{
    InstSeqNum done = 0;
    while (done < n && !halted_) {
        if (decode_stale_)
            rebuildDecodeCache();
        // Hot loop over a register-resident FetchView and PC; exits
        // to re-snapshot whenever a store patches the text segment.
        const FetchView fv = fetchView();
        Addr pc = state_.pc;
        while (done < n && !halted_ && !decode_stale_) {
            stepImpl<false>(nullptr, fv, pc);
            ++done;
        }
        state_.pc = pc;
    }
    seq_ += done;
    return done;
}

InstSeqNum
runFunctional(const Program &prog, InstSeqNum max_insts)
{
    Executor exec(prog);
    while (!exec.halted() && exec.instCount() < max_insts)
        exec.step();
    return exec.instCount();
}

} // namespace tcfill
