#include "pipeline/recovery.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tcfill::pipeline
{

RecoveryController::RecoveryController(const RecoveryEnv &env)
    : window_(env.window), rename_(env.rename), ctrl_(env.ctrl),
      fetchq_(env.fetchq), core_(env.core)
{
    core_.setCompleteHook(&RecoveryController::onComplete, this);
}

void
RecoveryController::onComplete(void *ctx, DynInst &di)
{
    auto *self = static_cast<RecoveryController *>(ctx);
    if (di.mispredicted || di.discardHi > di.discardLo)
        self->events_.push(di.completeCycle, di.seq);
}

void
RecoveryController::regStats(stats::Group &master)
{
    master.addCounter("recovery.mispredict_stall_cycles",
                      mispredict_stall_cycles_,
                      "fetch cycles lost from mispredict detection to "
                      "resolution");
    master.addCounter("recovery.squashes", squashes_,
                      "recovery squash sweeps performed");
    master.addCounter("recovery.rescued_insts", rescued_insts_,
                      "inactive instructions activated by rescue");
}

void
RecoveryController::squashWindow(InstSeqNum lo, InstSeqNum hi,
                                 InstSeqNum rescue_lo,
                                 InstSeqNum rescue_hi, Cycle now)
{
    auto &insts = window_.insts;
    for (std::size_t i = window_.lowerBound(lo);
         i < insts.size() && insts[i]->seq < hi; ++i) {
        DynInst &di = *insts[i];
        if (di.seq >= rescue_lo && di.seq < rescue_hi)
            continue;
        core_.squash(di);
        tracePipe(tracer_, obs::PipeStage::Squash, di, now);
    }
    core_.purgeSquashed();
    ++squashes_;
}

void
RecoveryController::resolveBranch(DynInst &di, Cycle now)
{
    if (di.squashed())
        return;

    if (di.mispredicted) {
        squashWindow(di.seq + 1, ~InstSeqNum(0), di.rescueLo,
                     di.rescueHi, now);
        // Activate the rescued inactive instructions (inactive issue's
        // payoff: the correct continuation is already in flight).
        if (di.rescueHi > di.rescueLo) {
            auto &insts = window_.insts;
            for (std::size_t i = window_.lowerBound(di.rescueLo);
                 i < insts.size() && insts[i]->seq < di.rescueHi;
                 ++i) {
                insts[i]->inactive = false;
                ++rescued_insts_;
            }
        }
        rename_.rebuild(window_.insts);
        ctrl_.pc = di.redirectPc;
        ctrl_.avail = std::max(ctrl_.avail, now + 1);
        mispredict_stall_cycles_ += now - di.fetchCycle;
        // Fetch stalls on a mispredicted branch in the line build that
        // fetches it, and lines dispatch in order, so nothing younger
        // can be waiting in the latch.
        panic_if(!fetchq_.empty(),
                 "mispredict of seq %llu resolved with a non-empty fetch "
                 "latch (%zu lines)",
                 static_cast<unsigned long long>(di.seq), fetchq_.size());
        if (ctrl_.stallBranch == di.seq)
            ctrl_.stallBranch = 0;
        return;
    }

    // Correct prediction: discard the inactive tail, if any.
    if (di.discardHi > di.discardLo)
        squashWindow(di.discardLo, di.discardHi, 0, 0, now);
}

void
RecoveryController::tick(Cycle now)
{
    while (!events_.empty() && events_.heap.top().cycle <= now) {
        const InstSeqNum seq = events_.heap.top().seq;
        events_.heap.pop();
        // A branch no longer in the window was squashed and popped.
        if (DynInst *di = window_.find(seq))
            resolveBranch(*di, now);
    }
}

} // namespace tcfill::pipeline
