#include "pipeline/issue_stage.hh"

namespace tcfill::pipeline
{

IssueStage::IssueStage(const IssueEnv &env)
    : core_(env.core, env.mem), in_(env.in), events_(env.events)
{
    core_.setCompleteHook(&IssueStage::onComplete, this);
}

void
IssueStage::onComplete(void *ctx, DynInst &di)
{
    auto *self = static_cast<IssueStage *>(ctx);
    if (di.isBranch || di.discardHi > di.discardLo ||
        di.mispredicted) {
        self->events_.push(di.completeCycle, DynInstPtr(&di));
    }
}

void
IssueStage::regStats(stats::Group &master)
{
    core_.regStats(master);
    master.addCounter("issue.dispatched", dispatched_,
                      "instructions inserted into reservation stations");
}

void
IssueStage::setTracer(obs::PipeTracer *tracer)
{
    Stage::setTracer(tracer);
    core_.setTracer(tracer);
}

void
IssueStage::dispatchPending()
{
    if (in_.toCore.empty())
        return;
    for (DynInst *di : in_.toCore) {
        core_.dispatch(*di);
        ++dispatched_;
    }
    in_.toCore.clear();
}

void
IssueStage::tick(Cycle now)
{
    core_.tick(now);
}

} // namespace tcfill::pipeline
