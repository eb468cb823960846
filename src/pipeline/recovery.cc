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
    if (di.isBranch || di.discardHi > di.discardLo)
        self->events_.push(di.completeCycle, DynInstPtr(&di));
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
    for (auto &di : window_.insts) {
        if (di->seq < lo || di->seq >= hi)
            continue;
        if (di->seq >= rescue_lo && di->seq < rescue_hi)
            continue;
        di->phase = InstPhase::Squashed;
        tracePipe(tracer_, obs::PipeStage::Squash, *di, now);
    }
    core_.squashRange(lo, hi, rescue_lo, rescue_hi);
    ++squashes_;
}

void
RecoveryController::resolveBranch(const DynInstPtr &di, Cycle now)
{
    if (di->squashed())
        return;

    if (di->mispredicted) {
        squashWindow(di->seq + 1, ~InstSeqNum(0), di->rescueLo,
                     di->rescueHi, now);
        // Activate the rescued inactive instructions (inactive issue's
        // payoff: the correct continuation is already in flight).
        if (di->rescueHi > di->rescueLo) {
            for (auto &w : window_.insts) {
                if (w->seq >= di->rescueLo && w->seq < di->rescueHi) {
                    w->inactive = false;
                    ++rescued_insts_;
                }
            }
        }
        rename_.rebuild(window_.insts);
        ctrl_.pc = di->redirectPc;
        ctrl_.avail = std::max(ctrl_.avail, now + 1);
        mispredict_stall_cycles_ += now - di->fetchCycle;
        // Drop any younger lines still waiting to issue (there are
        // none in the common case because fetch stalls, but a line
        // fetched the same cycle the mispredict was detected could
        // linger).
        while (!fetchq_.empty() &&
               !fetchq_.lines.back().insts.empty() &&
               fetchq_.lines.back().insts.front()->seq > di->seq) {
            fetchq_.lines.pop_back();
        }
        if (ctrl_.stallBranch == di)
            ctrl_.stallBranch = nullptr;
        return;
    }

    // Correct prediction: discard the inactive tail, if any.
    if (di->discardHi > di->discardLo)
        squashWindow(di->discardLo, di->discardHi, 0, 0, now);
}

void
RecoveryController::tick(Cycle now)
{
    while (!events_.empty() && events_.heap.top().cycle <= now) {
        DynInstPtr di = events_.heap.top().inst;
        events_.heap.pop();
        resolveBranch(di, now);
    }
}

} // namespace tcfill::pipeline
