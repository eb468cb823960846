/**
 * @file
 * The out-of-order back end of the decomposed pipeline (DESIGN.md
 * §10): owns the clustered ExecCore, drains the DispatchLatch into
 * reservation stations, and each cycle runs select/execute, pushing
 * branch-resolution events into the ResolutionQueue as completion
 * times become known.
 */

#ifndef TCFILL_PIPELINE_ISSUE_STAGE_HH
#define TCFILL_PIPELINE_ISSUE_STAGE_HH

#include "mem/cache.hh"
#include "pipeline/latches.hh"
#include "pipeline/stage.hh"
#include "uarch/exec_core.hh"

namespace tcfill::pipeline
{

/** Everything the issue stage sees of the rest of the machine. */
struct IssueEnv
{
    const ExecCoreParams &core;
    MemoryHierarchy &mem;
    DispatchLatch &in;
    ResolutionQueue &events;
};

/** Reservation-station insertion + the select/execute cycle. */
class IssueStage : public Stage
{
  public:
    explicit IssueStage(const IssueEnv &env);

    // ---- structural view for the dispatch stage ---------------------
    unsigned numFus() const { return core_.numFus(); }
    unsigned rsFree(unsigned fu) const { return core_.rsFree(fu); }

    /** Insert this cycle's renamed instructions (drains the latch). */
    void dispatchPending();

    /** One select/execute cycle; completions feed the event queue. */
    void tick(Cycle now);

    /**
     * Earliest future cycle (>= @p next) the back end can do work;
     * kNoCycle when quiescent. Forwarded from the ExecCore for the
     * Processor's cycle-skipping.
     */
    Cycle
    nextEventCycle(Cycle next) const
    {
        return core_.nextEventCycle(next);
    }

    // ---- recovery / retire interface --------------------------------
    void
    squashRange(InstSeqNum lo, InstSeqNum hi, InstSeqNum rescue_lo = 0,
                InstSeqNum rescue_hi = 0)
    {
        core_.squashRange(lo, hi, rescue_lo, rescue_hi);
    }

    void retireStore(const DynInstPtr &di) { core_.retireStore(di); }

    const ExecCore &core() const { return core_; }

    void regStats(stats::Group &master);
    void setTracer(obs::PipeTracer *tracer);

  private:
    /** ExecCore completion sink: filter branch-resolution events. */
    static void onComplete(void *ctx, DynInst &di);

    ExecCore core_;
    DispatchLatch &in_;
    ResolutionQueue &events_;

    stats::Counter dispatched_;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_ISSUE_STAGE_HH
