/**
 * @file
 * Functional (architecturally exact) execution of tcfill programs.
 * The Executor is the front of the execution-driven simulator: it
 * produces the committed dynamic instruction stream the timing model
 * consumes, and doubles as the reference for correctness tests.
 */

#ifndef TCFILL_ARCH_EXECUTOR_HH
#define TCFILL_ARCH_EXECUTOR_HH

#include <array>
#include <cstdint>

#include "arch/memory.hh"
#include "asm/program.hh"
#include "isa/instruction.hh"

namespace tcfill
{

/** Architectural register file + PC. R0 reads as zero always. */
struct ArchState
{
    std::array<std::uint32_t, kNumArchRegs> regs{};
    Addr pc = 0;

    // Invariant: regs[kRegZero] stays 0 — it is zero-initialized and
    // write() refuses to store to it — so read() needs no branch.
    // This runs several times per interpreted instruction.
    std::uint32_t
    read(RegIndex r) const
    {
        return regs[r];
    }

    void
    write(RegIndex r, std::uint32_t v)
    {
        if (r != kRegZero)
            regs[r] = v;
    }
};

/**
 * One committed dynamic instruction, as handed to the timing model.
 * Carries everything the microarchitecture model needs: the decoded
 * instruction, control-flow resolution, and the memory effective
 * address.
 */
struct ExecRecord
{
    InstSeqNum seq = 0;
    Addr pc = 0;
    Addr nextPc = 0;
    Instruction inst;
    /** Branch outcome (meaningful for conditional branches). */
    bool taken = false;
    /** Effective address for loads/stores, else kNoAddr. */
    Addr effAddr = kNoAddr;
};

/**
 * Producer of the committed dynamic instruction stream the timing
 * model consumes (via pipeline::OracleStream). The live Executor
 * below is the canonical implementation; tracefile::ReplayExecutor
 * re-materializes a previously captured stream, and
 * tracefile::RecordingSource tees any source into a trace file.
 * One virtual dispatch per committed instruction — noise next to the
 * cycle model.
 */
class CommitSource
{
  public:
    virtual ~CommitSource() = default;

    /** True once the stream is exhausted (HALT committed / trace end). */
    virtual bool halted() const = 0;

    /**
     * Produce the next committed instruction record.
     * Must not be called after halted().
     */
    virtual ExecRecord step() = 0;

    /** Committed instruction count so far. */
    virtual InstSeqNum instCount() const = 0;
};

/**
 * Steps a loaded program one instruction at a time. Execution is
 * total: divide-by-zero yields 0, unknown encodings are NOPs, and a
 * PC escaping the text segment is a fatal user error (wild jump).
 */
class Executor : public CommitSource
{
  public:
    explicit Executor(const Program &prog);

    /** True once HALT has committed. */
    bool halted() const override { return halted_; }

    /**
     * Execute and commit one instruction; returns its record.
     * Must not be called after halted().
     */
    ExecRecord step() override;

    /**
     * Stripped fast-forward step: commits one instruction with the
     * exact architectural effects of step() (asserted in tests) but
     * without materializing an ExecRecord or paying the virtual
     * CommitSource dispatch, fetching from a predecoded text image.
     * Returns true when the instruction ends a basic block (control
     * transfer or serializing) — all the BBV profiler needs.
     * Must not be called after halted().
     */
    bool fastStep();

    /**
     * Run up to @p n instructions on the fast path, stopping at halt.
     * Returns the number actually committed.
     */
    InstSeqNum fastForward(InstSeqNum n);

    /**
     * Reposition this executor at a previously captured architectural
     * point: register file + PC, committed-instruction count and halt
     * flag. Memory must be restored separately (arch/checkpoint.hh
     * owns that protocol).
     */
    void restoreState(const ArchState &st, InstSeqNum seq, bool halted);

    /** Committed instruction count so far. */
    InstSeqNum instCount() const override { return seq_; }

    const ArchState &state() const { return state_; }
    ArchState &state() { return state_; }
    const Memory &memory() const { return mem_; }
    Memory &memory() { return mem_; }
    const Program &program() const { return prog_; }

  private:
    /**
     * Loop-invariant snapshot of the fast-fetch state. The simulated
     * machine's byte stores go through std::uint8_t writes, which the
     * compiler must assume alias every member of this object — so a
     * loop calling stepImpl would otherwise reload the cache pointers
     * and bounds from memory on every interpreted instruction.
     * fastForward() snapshots them into locals once per decode-cache
     * generation and re-snapshots when a text store invalidates it.
     */
    struct FetchView
    {
        const Instruction *dec = nullptr;
        const Addr *tgt = nullptr;
        std::size_t n = 0;
        Addr base = 0;
    };

    /** The current decode cache as a FetchView (cache must be fresh). */
    FetchView
    fetchView() const
    {
        return {decoded_.data(), target_.data(), decoded_.size(),
                prog_.textBase};
    }

    /**
     * Shared semantics for step() and fastStep(). Fetch comes from
     * @p fv's predecoded text image. With kRecord the committed
     * instruction is described into @p rec and seq_ advances (@p fv
     * is the un-normalized image and carries no targets); without, no
     * record is built and the caller accounts seq_. The PC
     * lives in @p pc_io (read and advanced there, not in state_) so
     * fast loops can keep it in a register; callers write it back.
     * Returns the ends-basic-block flag. Force-inlined into its
     * same-TU callers: a call per interpreted instruction was ~20% of
     * the fast path.
     */
    template <bool kRecord>
#if defined(__GNUC__)
    [[gnu::always_inline]]
#endif
    bool stepImpl(ExecRecord *rec, const FetchView &fv, Addr &pc_io);

    /** (Re)decode the in-memory text image into decoded_ and raw_. */
    void rebuildDecodeCache();

    /** A store overlapping text invalidates the predecode cache. */
    void
    noteTextStore(Addr a)
    {
        if (a + 4 > prog_.textBase && a < prog_.textBase + prog_.textSize())
            decode_stale_ = true;
    }

    const Program &prog_;
    ArchState state_;
    Memory mem_;
    InstSeqNum seq_ = 0;
    bool halted_ = false;

    // Lazily built fetch cache: one decoded Instruction per text word,
    // rebuilt from the memory image (not Program::text) so prior
    // self-modifying stores stay visible. Stale until first use and
    // again after any store into the text range. decoded_ normalizes
    // absent sources to R0 for the fast path; raw_ keeps them as
    // decoded, for step()'s records. target_ carries
    // the statically known taken-target per slot (conditional
    // branches, J/JAL) so the fast path skips the sign-extend/shift
    // address arithmetic on every taken transfer.
    std::vector<Instruction> decoded_;
    std::vector<Instruction> raw_;
    std::vector<Addr> target_;
    bool decode_stale_ = true;
};

/**
 * Convenience: run @p prog functionally to completion (or @p maxInsts)
 * and return the number of instructions committed. Used by tests.
 */
InstSeqNum runFunctional(const Program &prog,
                         InstSeqNum max_insts = 100'000'000);

} // namespace tcfill

#endif // TCFILL_ARCH_EXECUTOR_HH
