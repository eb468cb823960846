#include "sim/processor.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace tcfill
{

// --------------------------------------------------------------------
// Construction: wire the stages through the latches
// --------------------------------------------------------------------

namespace
{

/** @p cfg itself; fatals first if the machine it describes cannot run. */
const SimConfig &
validated(const SimConfig &cfg)
{
    const std::string err = cfg.check();
    fatal_if(!err.empty(), "%s", err.c_str());
    return cfg;
}

/** A live Executor for @p prog, or none when an external source runs. */
std::optional<Executor>
ownExecutor(const Program *prog)
{
    if (prog)
        return std::optional<Executor>(std::in_place, *prog);
    return std::nullopt;
}

} // namespace

Processor::Processor(const Program &prog, const SimConfig &cfg)
    : Processor(&prog, nullptr, prog.name, prog.entry, cfg)
{
}

Processor::Processor(CommitSource &src, const std::string &workload,
                     Addr entry, const SimConfig &cfg)
    : Processor(nullptr, &src, workload, entry, cfg)
{
}

Processor::Processor(const Program *prog, CommitSource *src,
                     const std::string &workload, Addr entry,
                     const SimConfig &cfg)
    : cfg_(validated(cfg)), own_exec_(ownExecutor(prog)),
      src_(src ? *src : *own_exec_), workload_(workload),
      entry_pc_(entry), mem_(cfg.mem), bias_(cfg.bias),
      tcache_(cfg.tcache), fill_(cfg.fill, tcache_, bias_),
      oracle_(src_), core_(cfg_.core, mem_),
      fetch_(pipeline::FetchEnv{cfg_, oracle_, inst_pool_, mem_,
                                tcache_, ctrl_, fetch_latch_,
                                core_.numFus()}),
      dispatch_(pipeline::DispatchEnv{cfg_, fetch_latch_, window_,
                                      core_}),
      retire_(pipeline::RetireEnv{cfg_, window_, oracle_, fill_, core_,
                                  ctrl_, dispatch_.renameTable(),
                                  inst_pool_}),
      recovery_(pipeline::RecoveryEnv{window_, dispatch_.renameTable(),
                                      ctrl_, fetch_latch_, core_}),
      stats_("sim")
{
    ctrl_.pc = entry_pc_;

    // Registration order fixes the text/JSON stats layout; keep it
    // stable (the cli.golden ctest compares bytes).
    mem_.regStats(stats_);
    fetch_.regStats(stats_);    // bpred.* + fetch.*
    bias_.regStats(stats_);
    tcache_.regStats(stats_);
    fill_.regStats(stats_);
    core_.regStats(stats_);
    dispatch_.regStats(stats_); // issue.* + rename.* + dispatch.*
    retire_.regStats(stats_);
    recovery_.regStats(stats_);

    // Interval telemetry: built after registration so the collector
    // sees the full (ordered) timing-counter column set.
    if (cfg_.statsInterval != 0) {
        timeline_ = std::make_unique<obs::Timeline>(
            stats_, cfg_.statsInterval, cfg_.statsPhases);
        retire_.setTimeline(timeline_.get());
        // Record the active pass mask per interval, but only for the
        // oracle policy: static runs must keep their serialized
        // timeline bytes (golden fixtures pin them).
        if (cfg_.fill.policy.kind != FillPolicyKind::Static)
            timeline_->setMaskProbe(fill_.activeMaskPtr());
    }
}

Processor::~Processor()
{
    // Teardown frees what is still in flight, so the arena's
    // destructor finds every block back.
    for (DynInst *di : window_.insts)
        freeDynInst(inst_pool_, di);
    for (const pipeline::FetchLine &line : fetch_latch_.lines) {
        for (DynInst *di : line.insts)
            freeDynInst(inst_pool_, di);
    }
}

std::size_t
Processor::inFlight() const
{
    std::size_t n = window_.size();
    for (const pipeline::FetchLine &line : fetch_latch_.lines)
        n += line.insts.size();
    return n;
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
    recovery_.tick(cycle_);
    retire_.tick(cycle_);
    dispatch_.tick(cycle_);
    fetch_.tick(cycle_);
    core_.tick(cycle_);
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
        recovery_.tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Retire);
        retire_.tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Dispatch);
        dispatch_.tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Fetch);
        fetch_.tick(cycle_);
    }
    {
        ScopedHostTimer t(host_prof_, HostSection::Issue);
        core_.tick(cycle_);
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
    const Cycle retires = retire_.nextRetireCycle(next);
    if (retires <= next)
        return;
    wake = std::min(wake, retires);
    // Branch-resolution events (recovery processes cycle <= now).
    const Cycle resolves = recovery_.nextEventCycle();
    if (resolves <= next)
        return;
    wake = std::min(wake, resolves);
    // Core select / pending-store finalize.
    wake = std::min(wake, core_.nextEventCycle(next));

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
        if (retire_.instCapReached())
            break;
        if (cfg_.maxCycles && cycle_ >= cfg_.maxCycles)
            break;
        if (src_.halted() && window_.empty() && fetch_latch_.empty() &&
            oracle_.drained()) {
            break;
        }
        retire_.panicIfDeadlocked(cycle_);
        doCycle();
        // Don't skip past a termination condition: the loop top must
        // observe it at exactly this cycle count (res.cycles).
        if (retire_.instCapReached() ||
            (src_.halted() && window_.empty() &&
             fetch_latch_.empty() && oracle_.drained())) {
            continue;
        }
        skipIdleCycles();
    }
    // Every block handed out is either in flight or back in the arena.
    panic_if(inst_pool_.live() != inFlight(),
             "%llu DynInst blocks live but %zu instructions in flight",
             static_cast<unsigned long long>(inst_pool_.live()),
             inFlight());

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
        retire_.setTimeline(nullptr);
        timeline_.reset();
    }
    // Policy decision record: only for the oracle policy, so static
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
    fetch_.setTracer(tracer);
    dispatch_.setTracer(tracer);
    core_.setTracer(tracer);
    retire_.setTracer(tracer);
    recovery_.setTracer(tracer);
    fill_.setTracer(tracer);
}

void
Processor::setRetireCycleProbe(InstSeqNum at, Cycle *out)
{
    retire_.setRetireCycleProbe(at, out);
}

SimResult
simulate(const Program &prog, const SimConfig &cfg)
{
    Processor proc(prog, cfg);
    return proc.run();
}

} // namespace tcfill
