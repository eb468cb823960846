/**
 * @file
 * In-order retirement (DESIGN.md §10): drains completed instructions
 * from the head of the in-flight window, feeds each architectural
 * instruction to the FillUnit (the paper's retire→fill handoff),
 * seals the rename entries still naming it, releases serialize
 * stalls, pops the committed-path oracle, frees each popped slot's
 * instruction (committed or squashed), and owns the
 * dynamic-optimization result counters (Table 2 / figures 3-5, 7).
 */

#ifndef TCFILL_PIPELINE_RETIRE_UNIT_HH
#define TCFILL_PIPELINE_RETIRE_UNIT_HH

#include <algorithm>

#include "fill/fill_unit.hh"
#include "obs/timeline.hh"
#include "pipeline/latches.hh"
#include "pipeline/oracle.hh"
#include "pipeline/stage.hh"
#include "sim/config.hh"
#include "uarch/exec_core.hh"
#include "uarch/inst_pool.hh"
#include "uarch/pipe_hooks.hh"
#include "uarch/rename.hh"

namespace tcfill::pipeline
{

/** Everything the retire unit sees of the rest of the machine. */
struct RetireEnv
{
    const SimConfig &cfg;
    InstWindow &window;
    OracleStream &oracle;
    FillUnit &fill;
    ExecCore &core;
    FetchControl &ctrl;
    RenameTable &rename;
    /** Where popped slots' instructions return. */
    SlabArena &arena;
};

/** In-order retire, fill-unit handoff and result accounting. */
class RetireUnit : public Stage
{
  public:
    /** Cycles of no retirement after which we declare a model deadlock. */
    static constexpr Cycle kDeadlockWindow = 200000;

    explicit RetireUnit(const RetireEnv &env);

    /** One retire cycle: commit up to retireWidth instructions. */
    void tick(Cycle now);

    std::uint64_t retired() const { return retired_.value(); }
    Cycle lastRetireCycle() const { return last_retire_cycle_; }

    /** True once the configured maxInsts cap has been reached. */
    bool
    instCapReached() const
    {
        return cfg_.maxInsts && retired() >= cfg_.maxInsts;
    }

    /**
     * Fatal with a window-head diagnostic when nothing has retired
     * for longer than the deadlock window (a model bug, never a
     * legitimate stall).
     */
    void panicIfDeadlocked(Cycle now) const;

    /**
     * Earliest future cycle (>= @p next) this unit can make progress:
     * the window head's completion cycle, @p next itself when the
     * head is a squashed slot (popped for free on the next tick), or
     * kNoCycle when the head is waiting on an event that will arm
     * another stage first (incomplete, or inactive pending branch
     * activation). Used by the Processor's cycle-skipping.
     */
    Cycle
    nextRetireCycle(Cycle next) const
    {
        if (window_.empty())
            return kNoCycle;
        const DynInst &f = *window_.insts.front();
        if (f.squashed())
            return next;
        if (f.inactive || f.phase != InstPhase::Complete)
            return kNoCycle;
        return std::max(f.completeCycle, next);
    }

    /**
     * Attach the interval-telemetry collector (nullptr detaches); a
     * direct (inlineable) call, fed once per commit after the
     * commit's own counter increments, so each interval's deltas
     * include its boundary instruction. Purely observational —
     * timing is bit-identical either way (asserted in
     * tests/test_obs.cc).
     */
    void setTimeline(obs::Timeline *tl) { timeline_ = tl; }

    /**
     * Cycles-at-retired-count probe: when the @p at th instruction
     * commits, *out receives the cycle count a run capped at
     * maxInsts == at would have reported (commit cycle + 1; asserted
     * equal in tests). Purely observational — a probed run's timing is
     * bit-identical to an unprobed one. Lets sampled measurement read
     * the warmup-prefix cycle count out of the full timing run instead
     * of simulating the warmup twice (tracefile::runSampled).
     */
    void
    setRetireCycleProbe(InstSeqNum at, Cycle *out)
    {
        probe_at_ = at;
        probe_cycle_ = out;
    }

    void regStats(stats::Group &master);

  private:
    const SimConfig &cfg_;
    InstWindow &window_;
    OracleStream &oracle_;
    FillUnit &fill_;
    ExecCore &core_;
    FetchControl &ctrl_;
    RenameTable &rename_;
    SlabArena &arena_;

    Cycle last_retire_cycle_ = 0;
    obs::Timeline *timeline_ = nullptr;
    InstSeqNum probe_at_ = 0;
    Cycle *probe_cycle_ = nullptr;

    stats::Counter retired_;
    stats::Counter dyn_moves_;
    stats::Counter dyn_reassoc_;
    stats::Counter dyn_scaled_;
    stats::Counter dyn_elided_;
    stats::Counter dyn_move_idioms_;
    stats::Counter bypass_delayed_;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_RETIRE_UNIT_HH
