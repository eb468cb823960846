#include "sim/processor.hh"

#include <algorithm>
#include <chrono>

namespace tcfill
{

// --------------------------------------------------------------------
// Construction: wire the stages through the latches
// --------------------------------------------------------------------

Processor::Processor(const Program &prog, const SimConfig &cfg,
                     const pipeline::StagePolicy &policy)
    : cfg_(cfg), own_exec_(std::in_place, prog), src_(*own_exec_),
      workload_(prog.name), entry_pc_(prog.entry), mem_(cfg.mem),
      bias_(cfg.bias), tcache_(cfg.tcache),
      fill_(cfg.fill, tcache_, bias_), oracle_(src_), stats_("sim")
{
    wireStages(policy);
}

Processor::Processor(CommitSource &src, const std::string &workload,
                     Addr entry, const SimConfig &cfg,
                     const pipeline::StagePolicy &policy)
    : cfg_(cfg), src_(src), workload_(workload), entry_pc_(entry),
      mem_(cfg.mem), bias_(cfg.bias), tcache_(cfg.tcache),
      fill_(cfg.fill, tcache_, bias_), oracle_(src_), stats_("sim")
{
    wireStages(policy);
}

void
Processor::wireStages(const pipeline::StagePolicy &policy)
{
    ctrl_.pc = entry_pc_;

    // The issue stage goes first: fetch needs its FU count for
    // round-robin I-cache slotting.
    pipeline::IssueEnv issue_env{cfg_.core, mem_, dispatch_latch_,
                                 events_};
    issue_ = policy.makeIssue
                 ? policy.makeIssue(issue_env)
                 : std::make_unique<pipeline::IssueStage>(issue_env);

    pipeline::FetchEnv fetch_env{cfg_,    oracle_,      inst_pool_,
                                 mem_,    tcache_,      ctrl_,
                                 fetch_latch_, issue_->numFus()};
    fetch_ = policy.makeFetch
                 ? policy.makeFetch(fetch_env)
                 : std::make_unique<pipeline::FetchEngine>(fetch_env);

    pipeline::DispatchEnv dispatch_env{cfg_, fetch_latch_,
                                       dispatch_latch_, window_,
                                       *issue_};
    dispatch_ =
        policy.makeDispatch
            ? policy.makeDispatch(dispatch_env)
            : std::make_unique<pipeline::DispatchRename>(dispatch_env);

    pipeline::RetireEnv retire_env{cfg_, window_, oracle_,
                                   fill_, *issue_, ctrl_};
    retire_ = policy.makeRetire
                  ? policy.makeRetire(retire_env)
                  : std::make_unique<pipeline::RetireUnit>(retire_env);

    pipeline::RecoveryEnv recovery_env{window_, dispatch_->renameTable(),
                                       ctrl_,   fetch_latch_,
                                       *issue_, events_};
    recovery_ = policy.makeRecovery
                    ? policy.makeRecovery(recovery_env)
                    : std::make_unique<pipeline::RecoveryController>(
                          recovery_env);

    // Registration order fixes the text/JSON stats layout; keep it
    // stable (the cli.golden ctest compares bytes).
    mem_.regStats(stats_);
    fetch_->regStats(stats_);    // bpred.* + fetch.*
    bias_.regStats(stats_);
    tcache_.regStats(stats_);
    fill_.regStats(stats_);
    issue_->regStats(stats_);    // core.* + issue.*
    dispatch_->regStats(stats_); // rename.* + dispatch.*
    retire_->regStats(stats_);
    recovery_->regStats(stats_);

    // Interval telemetry: built after registration so the collector
    // sees the full (ordered) timing-counter column set.
    if (cfg_.statsInterval != 0) {
        timeline_ = std::make_unique<obs::Timeline>(
            stats_, cfg_.statsInterval, cfg_.statsPhases);
        retire_->setTimeline(timeline_.get());
        // Record the active pass mask per interval, but only for
        // adaptive policies: static runs must keep their serialized
        // timeline bytes (golden fixtures pin them).
        if (cfg_.fill.policy.kind != FillPolicyKind::Static)
            timeline_->setMaskProbe(fill_.activeMaskPtr());
    }
}

// --------------------------------------------------------------------
// Main loop
// --------------------------------------------------------------------

void
Processor::doCycle()
{
    if (host_prof_) {
        doCycleProfiled();
        return;
    }
    fill_.tick(cycle_);
    recovery_->tick(cycle_);
    retire_->tick(cycle_);
    dispatch_->tick(cycle_);
    issue_->dispatchPending();
    fetch_->tick(cycle_);
    issue_->tick(cycle_);
    ++cycle_;
}

void
Processor::doCycleProfiled()
{
    using obs::HostSection;
    using obs::ScopedHostTimer;
    {
        ScopedHostTimer t(host_prof_, HostSection::Fill);
        fill_.tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Recovery);
        recovery_->tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Retire);
        retire_->tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Dispatch);
        dispatch_->tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Issue);
        issue_->dispatchPending();
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Fetch);
        fetch_->tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Issue);
        issue_->tick(cycle_);
    }
    ++cycle_;
}


void
Processor::skipIdleCycles()
{
    const Cycle next = cycle_;  // first unsimulated cycle
    Cycle wake = kNoCycle;

    // Fetch: eligible as soon as the front end is unstalled, the
    // latch has room and the oracle still has instructions; its next
    // action is at avail.
    if (!ctrl_.stalled() &&
        fetch_latch_.size() < cfg_.fetchQueueLines &&
        !oracle_.exhausted()) {
        wake = std::max(ctrl_.avail, next);
        if (wake <= next)
            return;
    }
    // Dispatch: the latch front renames at readyCycle + 1. A ready
    // line blocked only by window capacity imposes no bound of its
    // own — retirement frees the window, and retire ticks before
    // dispatch, so skipping to the retire bound is exact.
    if (!fetch_latch_.empty()) {
        const pipeline::FetchLine &line = fetch_latch_.lines.front();
        const Cycle renames = line.readyCycle + 1;
        if (renames > next) {
            wake = std::min(wake, renames);
        } else if (window_.size() + line.insts.size() <=
                   cfg_.windowCap) {
            return;     // dispatch can act on the very next tick
        }
    }
    // The remaining sources are checked cheapest-first: any bound at
    // or before `next` means no skip, so bail before paying for the
    // core's ready-queue scan (the common case while the machine is
    // busy draining work).
    // Window head completing (or a squashed slot popping for free).
    const Cycle retires = retire_->nextRetireCycle(next);
    if (retires <= next)
        return;
    wake = std::min(wake, retires);
    // Branch-resolution events (recovery processes cycle <= now).
    if (!events_.empty()) {
        const Cycle resolves = events_.heap.top().cycle;
        if (resolves <= next)
            return;
        wake = std::min(wake, resolves);
    }
    // Core select / pending-store finalize.
    wake = std::min(wake, issue_->nextEventCycle(next));

    if (wake == kNoCycle || wake <= next)
        return;     // quiescent (deadlock path keeps stepping) or busy
    if (cfg_.maxCycles)
        wake = std::min(wake, cfg_.maxCycles);
    if (wake > cycle_)
        cycle_ = wake;
}

SimResult
Processor::run()
{
    const auto wall_start = std::chrono::steady_clock::now();
    while (true) {
        if (retire_->instCapReached())
            break;
        if (cfg_.maxCycles && cycle_ >= cfg_.maxCycles)
            break;
        if (src_.halted() && window_.empty() && fetch_latch_.empty() &&
            oracle_.drained()) {
            break;
        }
        retire_->panicIfDeadlocked(cycle_);
        doCycle();
        // Don't skip past a termination condition: the loop top must
        // observe it at exactly this cycle count (res.cycles).
        if (retire_->instCapReached() ||
            (src_.halted() && window_.empty() &&
             fetch_latch_.empty() && oracle_.drained())) {
            continue;
        }
        skipIdleCycles();
    }

    // Every counter comes out of the stats registry so a stage's
    // counter hoists automatically flow into the result.
    SimResult res;
    res.config = cfg_.name;
    res.workload = workload_;
    res.maxInsts = cfg_.maxInsts;
    res.retired = stats_.counterValue("retire.retired");
    res.cycles = cycle_;
    res.hostSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - wall_start).count();
    res.tcHits = stats_.counterValue("tcache.hits");
    res.tcMisses = stats_.counterValue("tcache.misses");
    res.mispredicts = stats_.counterValue("fetch.mispredicts");
    res.inactiveRescues = stats_.counterValue("fetch.inactive_rescues");
    res.mispredictStallCycles =
        stats_.counterValue("recovery.mispredict_stall_cycles");
    res.segmentsBuilt = stats_.counterValue("fill.segments");
    res.avgSegmentLength = fill_.avgSegmentLength();
    res.bpredAccuracy =
        stats_.has("bpred.accuracy") ? stats_.value("bpred.accuracy")
                                     : 0.0;
    res.dynMoves = stats_.counterValue("retire.dyn_moves");
    res.dynReassoc = stats_.counterValue("retire.dyn_reassoc");
    res.dynScaled = stats_.counterValue("retire.dyn_scaled");
    res.dynElided = stats_.counterValue("retire.dyn_elided");
    res.dynMoveIdioms = stats_.counterValue("retire.dyn_move_idioms");
    res.bypassDelayed = stats_.counterValue("retire.bypass_delayed");
    if (timeline_) {
        res.timeline = timeline_->finish(cycle_);
        retire_->setTimeline(nullptr);
        timeline_.reset();
    }
    // Policy decision record: only for non-static policies, so legacy
    // result documents are byte-identical to the pre-policy code.
    if (cfg_.fill.policy.kind != FillPolicyKind::Static) {
        res.policy =
            std::make_shared<const PolicySummary>(fill_.policySummary());
    }
    return res;
}

void
Processor::dumpStats(std::ostream &os)
{
    stats_.dump(os);
}

void
Processor::dumpStatsJson(std::ostream &os)
{
    stats_.dumpJson(os);
}

void
Processor::setTracer(obs::PipeTracer *tracer)
{
    fetch_->setTracer(tracer);
    dispatch_->setTracer(tracer);
    issue_->setTracer(tracer); // forwards to the ExecCore
    retire_->setTracer(tracer);
    recovery_->setTracer(tracer);
    fill_.setTracer(tracer);
}

void
Processor::setCommitHook(pipeline::CommitHook hook)
{
    retire_->setCommitHook(std::move(hook));
}

void
Processor::setRetireCycleProbe(InstSeqNum at, Cycle *out)
{
    retire_->setRetireCycleProbe(at, out);
}

SimResult
simulate(const Program &prog, const SimConfig &cfg)
{
    Processor proc(prog, cfg);
    return proc.run();
}

} // namespace tcfill
