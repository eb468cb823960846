/**
 * @file
 * Misprediction recovery for the decomposed pipeline (DESIGN.md §10):
 * drains the ResolutionQueue at the top of every cycle, squashes the
 * mis-speculated window suffix (sparing the inactive-issue rescue
 * range, which it activates instead — the paper's §3 rescue),
 * rebuilds the rename table from the surviving window (checkpoint
 * repair), redirects fetch, and discards inactive tails of correctly
 * predicted exits.
 */

#ifndef TCFILL_PIPELINE_RECOVERY_HH
#define TCFILL_PIPELINE_RECOVERY_HH

#include "pipeline/issue_stage.hh"
#include "pipeline/latches.hh"
#include "pipeline/stage.hh"
#include "uarch/pipe_hooks.hh"
#include "uarch/rename.hh"

namespace tcfill::pipeline
{

/** Everything recovery sees of the rest of the machine. */
struct RecoveryEnv
{
    InstWindow &window;
    RenameTable &rename;
    FetchControl &ctrl;
    FetchLatch &fetchq;
    IssueStage &issue;
    ResolutionQueue &events;
};

/** Branch-resolution events: squash, rescue, redirect, repair. */
class RecoveryController : public Stage
{
  public:
    explicit RecoveryController(const RecoveryEnv &env);

    /** Process every resolution event due at or before @p now. */
    void tick(Cycle now);

    /** Resolve one branch (public for the stage unit tests). */
    void resolveBranch(const DynInstPtr &di, Cycle now);

    /**
     * Squash window instructions with seq in [lo, hi), sparing
     * [rescue_lo, rescue_hi); mirrors the squash into the issue
     * stage's reservation stations.
     */
    void squashWindow(InstSeqNum lo, InstSeqNum hi,
                      InstSeqNum rescue_lo, InstSeqNum rescue_hi,
                      Cycle now);

    std::uint64_t
    stallCycles() const
    {
        return mispredict_stall_cycles_.value();
    }

    void regStats(stats::Group &master);

  private:
    InstWindow &window_;
    RenameTable &rename_;
    FetchControl &ctrl_;
    FetchLatch &fetchq_;
    IssueStage &issue_;
    ResolutionQueue &events_;

    stats::Counter mispredict_stall_cycles_;
    stats::Counter squashes_;
    stats::Counter rescued_insts_;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_RECOVERY_HH
