#include "fill/fill_unit.hh"

#include "common/logging.hh"

namespace tcfill
{

std::string
FillUnitConfig::check() const
{
    if (maxInsts == 0 || maxInsts > kSegmentMaxInsts)
        return "maxInsts must be in [1," +
            std::to_string(kSegmentMaxInsts) + "]";
    if (maxCondBranches > kSegmentMaxCondBranches)
        return "maxCondBranches must be at most " +
            std::to_string(kSegmentMaxCondBranches);
    return {};
}

FillUnit::FillUnit(const FillUnitConfig &config, TraceCache &tcache,
                   BiasTable &bias)
    : config_(config), tcache_(tcache), bias_(bias),
      policy_(config.policy, passMaskFromOpts(config.opts))
{
    const std::string err = config.check();
    fatal_if(!err.empty(), "fill unit: %s", err.c_str());
    pending_.insts.reserve(kSegmentMaxInsts);
}

void
FillUnit::retire(const ExecRecord &rec, Cycle now, bool miss_target)
{
    const Instruction &inst = rec.inst;

    // Feed the oracle policy the commit stream. Done first so a
    // window decision is already in force if this very instruction
    // triggers a finalize below.
    if (policy_.observesRetire())
        policy_.onRetire(rec.pc, inst.endsBlock(), now);

    // Boundary convergence: start a fresh segment at addresses the
    // fetch stream demanded from the instruction cache.
    if (miss_target && config_.restartAtMissTargets &&
        !pending_.empty()) {
        finalize(now);
    }

    // Train the bias table with every retired conditional branch so
    // promotion state is current before we decide how to record it.
    bool is_cond = inst.isCondBranch();
    bool promoted = false;
    if (is_cond && config_.promoteBranches) {
        bias_.observe(rec.pc, rec.taken);
        // A branch may only be recorded promoted if its bias direction
        // matches this occurrence (it always does right after observe:
        // a flip resets the run to this direction and demotes).
        promoted = bias_.isPromoted(rec.pc);
    }

    // Finalize-before rules: the incoming instruction does not fit.
    if (!pending_.empty()) {
        bool full = pending_.size() >= config_.maxInsts;
        bool too_many_branches =
            is_cond && !promoted &&
            pending_cond_branches_ >= config_.maxCondBranches;
        if (full || too_many_branches)
            finalize(now);
    }

    if (pending_.empty()) {
        pending_.startPc = rec.pc;
        pending_cond_branches_ = 0;
        pending_blocks_ = 1;
        pending_cf_region_ = 0;
    }

    TraceInst ti;
    ti.inst = inst;
    ti.pc = rec.pc;
    ti.nextPc = rec.nextPc;
    ti.taken = rec.taken;
    ti.origIdx = static_cast<std::uint8_t>(pending_.size());
    ti.slot = ti.origIdx & 15;
    ti.blockNum = static_cast<std::uint8_t>(pending_blocks_ - 1);
    ti.cfRegion = static_cast<std::uint8_t>(pending_cf_region_);
    if (inst.isControl())
        ++pending_cf_region_;
    if (is_cond && promoted) {
        ti.promoted = true;
        ti.promotedDir = rec.taken;
        ++promoted_branches_;
    }
    pending_.insts.push_back(ti);
    pending_.nextPc = rec.nextPc;

    if (is_cond && !promoted) {
        pending_.predSlots.push_back(
            static_cast<std::uint8_t>(pending_.size() - 1));
        ++pending_cond_branches_;
        ++pending_blocks_;
    }

    // Finalize-after rules (paper §3): returns, indirect branches and
    // serializing instructions terminate the segment; subroutine calls
    // and unconditional direct branches do not.
    const bool terminates = inst.isIndirect() || inst.isSerializing();
    if (terminates || pending_.size() >= config_.maxInsts)
        finalize(now);
}

void
FillUnit::finalize(Cycle now)
{
    if (pending_.empty())
        return;

    TraceSegment seg = std::move(pending_);
    pending_ = TraceSegment{};
    // A segment grows to at most kSegmentMaxInsts: size it once rather
    // than regrowing from one instruction for every segment.
    pending_.insts.reserve(kSegmentMaxInsts);
    pending_cond_branches_ = 0;
    pending_blocks_ = 1;
    pending_cf_region_ = 0;

    seg.numBlocks = seg.insts.empty()
        ? 1
        : static_cast<unsigned>(seg.insts.back().blockNum) + 1;

    // The optimization passes (paper §4) the policy currently
    // selects. Dependency pre-decode is part of the baseline fill
    // unit and always runs.
    const PassMask mask = policy_.mask();
    if (tracer_ && last_mask_ >= 0 &&
        mask != static_cast<PassMask>(last_mask_)) {
        obs::PolicyEvent pe;
        pe.cycle = now;
        pe.prevMask = static_cast<std::uint8_t>(last_mask_);
        pe.newMask = mask;
        tracer_->policyEvent(pe);
    }
    last_mask_ = mask;
    const PassCounts applied = runPasses(
        seg, mask, config_.opts.reassocOptions, &placement_hints_);
    moves_marked_ += applied.movesMarked;
    reassociations_ += applied.reassociations;
    scaled_adds_ += applied.scaledAdds;
    dead_elided_ += applied.deadElided;

    ++segments_;
    insts_ += seg.size();
    seg_length_.sample(seg.size());

    if (tracer_) {
        obs::FillEvent ev;
        ev.startPc = seg.startPc;
        ev.cycle = now;
        ev.insts = static_cast<unsigned>(seg.size());
        ev.blocks = seg.numBlocks;
        for (const TraceInst &ti : seg.insts) {
            ev.movesMarked += ti.isMove;
            ev.reassociated += ti.reassociated;
            ev.scaledAdds += ti.hasScale();
            ev.deadElided += ti.deadElided;
            ev.promotedBranches += ti.promoted;
        }
        tracer_->fillEvent(ev);
    }

    fill_pipe_.push_back({now + config_.latency, std::move(seg)});
}

void
FillUnit::tick(Cycle now)
{
    while (!fill_pipe_.empty() && fill_pipe_.front().readyCycle <= now) {
        tcache_.install(std::move(fill_pipe_.front().seg));
        fill_pipe_.pop_front();
    }
}

void
FillUnit::flushPending(Cycle now)
{
    finalize(now);
    tick(now + config_.latency);
}

double
FillUnit::avgSegmentLength() const
{
    return seg_length_.mean();
}

PolicySummary
FillUnit::policySummary() const
{
    PolicySummary s;
    policy_.summarize(s);
    s.movesMarked = moves_marked_.value();
    s.reassociations = reassociations_.value();
    s.scaledAdds = scaled_adds_.value();
    s.deadElided = dead_elided_.value();
    return s;
}

void
FillUnit::regStats(stats::Group &group)
{
    group.addCounter("fill.segments", segments_, "trace segments built");
    group.addCounter("fill.insts", insts_,
                     "instructions collected into segments");
    group.addCounter("fill.moves_marked", moves_marked_,
                     "register moves marked (static, per segment build)");
    group.addCounter("fill.reassociations", reassociations_,
                     "instructions reassociated (static)");
    group.addCounter("fill.scaled_adds", scaled_adds_,
                     "scaled operands created (static)");
    group.addCounter("fill.dead_elided", dead_elided_,
                     "dead writes elided (static, extension)");
    group.addCounter("fill.promoted_branches", promoted_branches_,
                     "conditional branches recorded promoted");
    group.addFormula("fill.avg_segment_length",
        [this]() { return avgSegmentLength(); },
        "mean instructions per segment");
}

} // namespace tcfill
