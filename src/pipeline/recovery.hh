/**
 * @file
 * Misprediction recovery for the decomposed pipeline (DESIGN.md §10):
 * as the ExecCore's completion sink, queues the resolution events it
 * needs in its ResolutionQueue; drains that queue at the top of every
 * cycle, squashes the mis-speculated window suffix (sparing the
 * inactive-issue rescue range, which it activates instead — the
 * paper's §3 rescue), rebuilds the rename table from the surviving
 * window (checkpoint repair), redirects fetch, and discards inactive
 * tails of correctly predicted exits. It frees no instruction: the
 * squashed ones stay in the window until retire pops their slots, and
 * the fetch latch is empty whenever a mispredict resolves (fetch
 * stalls on the branch in the line build that fetches it, and lines
 * dispatch whole and in order), which resolveBranch() checks.
 */

#ifndef TCFILL_PIPELINE_RECOVERY_HH
#define TCFILL_PIPELINE_RECOVERY_HH

#include <queue>
#include <vector>

#include "pipeline/latches.hh"
#include "pipeline/stage.hh"
#include "uarch/exec_core.hh"
#include "uarch/pipe_hooks.hh"
#include "uarch/rename.hh"

namespace tcfill::pipeline
{

/**
 * Branch-resolution events, a (cycle, seq) min-heap: filled by the
 * recovery controller's completion sink as the ExecCore learns
 * completion times, drained by the controller at the top of each
 * cycle, which finds each branch by its seq in the window.
 */
struct ResolutionQueue
{
    struct Event
    {
        Cycle cycle;
        InstSeqNum seq;

        bool
        operator>(const Event &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        heap;

    void push(Cycle cycle, InstSeqNum seq) { heap.push({cycle, seq}); }

    bool empty() const { return heap.empty(); }
};

/** Everything recovery sees of the rest of the machine. */
struct RecoveryEnv
{
    InstWindow &window;
    RenameTable &rename;
    FetchControl &ctrl;
    FetchLatch &fetchq;
    ExecCore &core;
};

/** Branch-resolution events: squash, rescue, redirect, repair. */
class RecoveryController : public Stage
{
  public:
    explicit RecoveryController(const RecoveryEnv &env);

    /** Process every resolution event due at or before @p now. */
    void tick(Cycle now);

    /**
     * Cycle of the earliest queued resolution event; kNoCycle when
     * none is queued (the Processor's cycle-skipping reads it).
     */
    Cycle
    nextEventCycle() const
    {
        return events_.empty() ? kNoCycle : events_.heap.top().cycle;
    }

    /** Resolve one branch (public for the stage unit tests). */
    void resolveBranch(DynInst &di, Cycle now);

    /**
     * Squash window instructions with seq in [lo, hi), sparing
     * [rescue_lo, rescue_hi): from the range's first slot, found by
     * seq, to its end, each is squashed in the core (freeing its
     * station slot), then the core purges its store structures.
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
    /**
     * ExecCore completion sink (installed by the constructor): queues
     * an event, by seq, for exactly the instructions resolveBranch()
     * acts on — mispredicted branches and exits carrying an inactive
     * tail to discard; tick() resolves each popped event whose
     * instruction is still in the window.
     */
    static void onComplete(void *ctx, DynInst &di);

    InstWindow &window_;
    RenameTable &rename_;
    FetchControl &ctrl_;
    FetchLatch &fetchq_;
    ExecCore &core_;
    ResolutionQueue events_;

    stats::Counter mispredict_stall_cycles_;
    stats::Counter squashes_;
    stats::Counter rescued_insts_;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_RECOVERY_HH
