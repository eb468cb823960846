#include "pipeline/recovery.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"

namespace tcfill::pipeline
{

RecoveryController::RecoveryController(const RecoveryEnv &env)
    : window_(env.window), rename_(env.rename), ctrl_(env.ctrl),
      fetchq_(env.fetchq), issue_(env.issue), events_(env.events)
{
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
    issue_.squashRange(lo, hi, rescue_lo, rescue_hi);
    ++squashes_;

#ifdef TCFILL_SQUASH_AUDIT
    for (auto &di : window_.insts) {
        if (di->squashed())
            continue;
        for (unsigned k = 0; k < di->numSrcs; ++k) {
            const Operand &op = di->src[k];
            if (op.producer && op.producer->squashed() &&
                op.producer->completeCycle == kNoCycle) {
                std::fprintf(stderr,
                    "AUDIT cycle=%llu squash[%llu,%llu) rescue[%llu,%llu)"
                    " survivor seq=%llu pc=0x%llx '%s' act=%d cor=%d"
                    " src%u -> squashed seq=%llu pc=0x%llx '%s'\n",
                    (unsigned long long)now,
                    (unsigned long long)lo, (unsigned long long)hi,
                    (unsigned long long)rescue_lo,
                    (unsigned long long)rescue_hi,
                    (unsigned long long)di->seq,
                    (unsigned long long)di->pc,
                    disassemble(di->inst).c_str(), di->inactive ? 0 : 1,
                    di->onCorrectPath ? 1 : 0, k,
                    (unsigned long long)op.producer->seq,
                    (unsigned long long)op.producer->pc,
                    disassemble(op.producer->inst).c_str());
            }
        }
    }
#endif
}

void
RecoveryController::resolveBranch(const DynInstPtr &di, Cycle now)
{
#ifdef TCFILL_SQUASH_AUDIT
    std::fprintf(stderr,
        "AUDIT-RESOLVE cycle=%llu seq=%llu pc=0x%llx sq=%d misp=%d "
        "rescue[%llu,%llu) discard[%llu,%llu)\n",
        (unsigned long long)now, (unsigned long long)di->seq,
        (unsigned long long)di->pc, di->squashed() ? 1 : 0,
        di->mispredicted ? 1 : 0,
        (unsigned long long)di->rescueLo,
        (unsigned long long)di->rescueHi,
        (unsigned long long)di->discardLo,
        (unsigned long long)di->discardHi);
#endif
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
        if (di->isBranch || di->discardHi > di->discardLo)
            resolveBranch(di, now);
    }
}

} // namespace tcfill::pipeline
