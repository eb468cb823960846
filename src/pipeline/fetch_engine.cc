#include "pipeline/fetch_engine.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace tcfill::pipeline
{

FetchEngine::FetchEngine(const FetchEnv &env)
    : cfg_(env.cfg), oracle_(env.oracle),
      arena_(env.arena), mem_(env.mem), tcache_(env.tcache),
      ctrl_(env.ctrl), out_(env.out), num_fus_(env.numFus),
      bpred_(env.cfg.bpred), ras_(env.cfg.rasDepth), ipred_()
{
}

void
FetchEngine::regStats(stats::Group &master)
{
    bpred_.regStats(master);
    master.addCounter("fetch.mispredicts", mispredicts_,
                      "branches that resolved against the prediction");
    master.addCounter("fetch.inactive_rescues", rescues_,
                      "mispredicts hidden by inactive issue");
    master.addCounter("fetch.trace_lines", trace_lines_,
                      "lines fetched from the trace cache");
    master.addCounter("fetch.icache_lines", icache_lines_,
                      "blocks fetched through the supporting I-cache");
}

// --------------------------------------------------------------------
// Dynamic instruction construction
// --------------------------------------------------------------------

DynInstPtr
FetchEngine::makeDynInst(const Instruction &inst, Addr pc,
                         FetchSource src, Cycle fetch_cycle)
{
    // Pooled allocation: the DynInst (refcount included) comes from
    // the per-processor slab arena and recycles when the last
    // reference drops (see inst_pool.hh) — no per-instruction malloc.
    DynInstPtr di = allocDynInst(arena_);
    di->seq = seq_next_++;
    di->pc = pc;
    di->inst = inst;
    di->archInst = inst;
    di->source = src;
    di->fetchCycle = fetch_cycle;
    di->latency = opInfo(inst.op).latency;
    di->isLoad = inst.isLoad();
    di->isStore = inst.isStore();
    di->isBranch = inst.isControl();
    if (di->isStore)
        di->dataOperand = static_cast<int>(inst.numSrcs()) - 1;
    return di;
}

// --------------------------------------------------------------------
// Fetch: trace cache path
// --------------------------------------------------------------------

FetchLine
FetchEngine::buildTraceLine(const TraceSegment &seg, Cycle ready)
{
    const std::size_t n = seg.size();
    const std::size_t avail = oracle_.ensure(n);

    // How far the committed path matches the trace's recorded path.
    std::size_t match_len = 0;
    while (match_len < n && match_len < avail &&
           oracle_.at(match_len).pc == seg.insts[match_len].pc) {
        ++match_len;
    }
    panic_if(match_len == 0, "trace line start does not match fetch PC");

    // Consult the multiple-branch predictor: the predicted exit is the
    // first internal branch predicted against the trace's direction.
    std::size_t active_len = n;
    std::ptrdiff_t mispredict_idx = -1;
    std::array<int, kSegmentMaxInsts> slot_of;
    slot_of.fill(-1);
    unsigned pred_count = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const TraceInst &ti = seg.insts[i];
        if (!ti.inst.isCondBranch())
            continue;
        const bool on_path = i < match_len;
        bool pred_dir;
        if (ti.promoted) {
            pred_dir = ti.promotedDir;
            if (on_path)
                bpred_.pushHistory(oracle_.at(i).taken);
        } else {
            unsigned slot = std::min(pred_count, 2u);
            slot_of[i] = static_cast<int>(slot);
            pred_dir = bpred_.predict(ti.pc, slot);
            ++pred_count;
            // Fetch-time training with the resolved outcome (models
            // speculative history update with perfect repair; retire-
            // time training adds an in-flight staleness artifact that
            // swamps the optimization effects being measured).
            if (on_path)
                bpred_.update(ti.pc, slot, oracle_.at(i).taken);
        }
        if (active_len == n && pred_dir != ti.taken)
            active_len = i + 1;
        if (on_path && mispredict_idx < 0 &&
            pred_dir != oracle_.at(i).taken) {
            mispredict_idx = static_cast<std::ptrdiff_t>(i);
        }
    }

    // How much of the line issues: everything (inactive issue) or just
    // the predicted-active prefix.
    const std::size_t fetch_n =
        cfg_.inactiveIssue ? n : std::min(n, active_len);

    FetchLine line;
    line.readyCycle = ready;
    line.fromTrace = true;
    line.insts.reserve(fetch_n);

    // RAS prediction for a segment-ending return (the only place a
    // return can appear, since indirect control terminates segments).
    Addr ras_pred = kNoAddr;

    for (std::size_t i = 0; i < fetch_n; ++i) {
        const TraceInst &ti = seg.insts[i];
        const bool correct = i < match_len;

        DynInstPtr di = makeDynInst(ti.inst, ti.pc,
                                    FetchSource::TraceCache, ready);
        di->fu = ti.slot;
        di->lineIdx = static_cast<std::uint8_t>(i);
        for (unsigned k = 0; k < 3; ++k)
            di->lineDep[k] = ti.srcDep[k];
        di->moveMarked = ti.isMove;
        di->elided = ti.deadElided;
        di->moveSrcReg =
            ti.moveSrc == Instruction::kNoReg ? kRegZero : ti.moveSrc;
        di->moveSrcDep = ti.moveSrcDep;
        di->reassociated = ti.reassociated;
        di->scaled = ti.hasScale();
        di->promotedBranch = ti.promoted;
        di->predSlot = slot_of[i];
        di->onCorrectPath = correct;
        di->inactive = i >= active_len;

        if (correct) {
            const ExecRecord &rec = oracle_.at(i);
            di->archInst = rec.inst;
            di->nextPc = rec.nextPc;
            di->taken = rec.taken;
            di->effAddr = rec.effAddr;
            di->moveIdiom = moveSource(rec.inst).has_value();

            // Return address stack tracks the committed path.
            if (rec.inst.isCall())
                ras_.push(rec.pc + 4);
            else if (rec.inst.isReturn())
                ras_pred = ras_.pop();
        } else {
            di->taken = ti.taken;
        }
        line.insts.push_back(std::move(di));
    }

    // End-of-segment indirect control: predict the next fetch address
    // through the RAS (returns) or the indirect predictor (computed
    // jumps / indirect calls). Only meaningful when predictions
    // follow the whole trace and the trace matched to its end.
    if (active_len == n && match_len == n &&
        seg.insts[n - 1].inst.isIndirect()) {
        const TraceInst &last = seg.insts[n - 1];
        Addr target =
            last.inst.isReturn() ? ras_pred : ipred_.predict(last.pc);
        if (mispredict_idx < 0 && target != oracle_.at(n - 1).nextPc)
            mispredict_idx = static_cast<std::ptrdiff_t>(n) - 1;
        if (!last.inst.isReturn())
            ipred_.update(last.pc, oracle_.at(n - 1).nextPc);
    }

    // Attach misprediction / inactive-issue metadata to branches.
    const std::size_t consumed = std::min(fetch_n, match_len);
    if (mispredict_idx >= 0) {
        auto bi = static_cast<std::size_t>(mispredict_idx);
        panic_if(bi >= line.insts.size(),
                 "mispredicted branch outside the fetched prefix");
        DynInstPtr &br = line.insts[bi];
        br->mispredicted = true;
        ++mispredicts_;

        const bool rescue = cfg_.inactiveIssue &&
            bi + 1 == active_len && match_len > active_len;
        if (rescue) {
            br->rescueLo = line.insts[active_len]->seq;
            br->rescueHi = line.insts[match_len - 1]->seq + 1;
            br->redirectPc = oracle_.at(match_len - 1).nextPc;
            ++rescues_;
        } else {
            br->redirectPc = oracle_.at(bi).nextPc;
        }
        ctrl_.stallBranch = br;
    } else {
        // Invariant: match_len >= 1 (checked at entry) and
        // fetch_n >= 1, so at least one oracle record was consumed
        // and the no-mispredict redirect always follows the committed
        // path. A predicted exit address influences timing only
        // through mispredict detection, never through this redirect.
        panic_if(consumed == 0,
                 "no-mispredict redirect with nothing consumed");
        ctrl_.pc = oracle_.at(consumed - 1).nextPc;
    }

    // The predicted-exit branch discards trailing inactive work when
    // its prediction was right.
    if (active_len < fetch_n) {
        DynInstPtr &exit_br = line.insts[active_len - 1];
        exit_br->discardLo = line.insts[active_len]->seq;
        exit_br->discardHi = line.insts[fetch_n - 1]->seq + 1;
    }

    // Serializing instructions gate fetch until they retire.
    for (const auto &di : line.insts) {
        if (di->onCorrectPath && di->inst.isSerializing()) {
            ctrl_.stallSerialize = di;
            break;
        }
    }

    oracle_.consume(consumed);
    ++trace_lines_;
    return line;
}

// --------------------------------------------------------------------
// Fetch: supporting instruction cache path
// --------------------------------------------------------------------

FetchLine
FetchEngine::buildICacheLine(Cycle ready)
{
    FetchLine line;
    line.readyCycle = ready;
    line.fromTrace = false;

    const std::size_t line_bytes = cfg_.mem.l1i.lineBytes;
    std::size_t i = 0;
    Addr pc = ctrl_.pc;
    Addr ras_pred = kNoAddr;

    while (i < cfg_.fetchWidth) {
        if (oracle_.ensure(i + 1) <= i)
            break;  // program ends here
        const ExecRecord &rec = oracle_.at(i);
        panic_if(rec.pc != pc, "I-cache fetch diverged from oracle");

        DynInstPtr di = makeDynInst(rec.inst, rec.pc,
                                    FetchSource::InstCache, ready);
        di->missLineStart = i == 0;
        di->fu = static_cast<int>(i % num_fus_);
        di->nextPc = rec.nextPc;
        di->taken = rec.taken;
        di->effAddr = rec.effAddr;
        di->moveIdiom = moveSource(rec.inst).has_value();
        line.insts.push_back(di);
        ++i;

        if (rec.inst.isCall())
            ras_.push(rec.pc + 4);
        else if (rec.inst.isReturn())
            ras_pred = ras_.pop();

        if (rec.inst.isControl() || rec.inst.isSerializing()) {
            // One block per cycle: stop at the first control-flow or
            // serializing instruction.
            break;
        }
        pc += 4;
        if ((pc & (line_bytes - 1)) == 0)
            break;  // crossed the I-cache line
    }

    if (line.insts.empty())
        return line;

    // Resolve the fetch redirection for the block-ending instruction.
    DynInstPtr last = line.insts.back();
    const Instruction &li = last->inst;
    bool mispred = false;
    if (li.isCondBranch()) {
        last->predSlot = 0;
        bool pred = bpred_.predict(last->pc, 0);
        mispred = pred != last->taken;
        bpred_.update(last->pc, 0, last->taken);
    } else if (li.isIndirect()) {
        Addr target =
            li.isReturn() ? ras_pred : ipred_.predict(last->pc);
        mispred = target != last->nextPc;
        if (!li.isReturn())
            ipred_.update(last->pc, last->nextPc);
    }

    if (mispred) {
        last->mispredicted = true;
        last->redirectPc = last->nextPc;
        ctrl_.stallBranch = last;
        ++mispredicts_;
    } else {
        ctrl_.pc = last->nextPc;
    }

    if (last->inst.isSerializing())
        ctrl_.stallSerialize = last;

    oracle_.consume(line.insts.size());
    ++icache_lines_;
    return line;
}

// --------------------------------------------------------------------
// The fetch cycle
// --------------------------------------------------------------------

void
FetchEngine::tick(Cycle now)
{
    if (ctrl_.stalled())
        return;
    if (now < ctrl_.avail)
        return;
    if (out_.size() >= cfg_.fetchQueueLines)
        return;
    if (oracle_.exhausted())
        return;

    panic_if(oracle_.at(0).pc != ctrl_.pc,
             "fetch PC 0x%llx diverged from committed path 0x%llx",
             static_cast<unsigned long long>(ctrl_.pc),
             static_cast<unsigned long long>(oracle_.at(0).pc));

    // Path-associative lookup with MRU way selection. (Prediction-
    // directed selection is a tempting alternative, but picking the
    // way the predictor agrees with defeats inactive issue: the trace
    // can then never carry the correct path past a mispredicted exit,
    // so every mispredict pays the full resolution latency. MRU keeps
    // the most recent path in the line, and inactive issue covers the
    // prediction/trace disagreements — measurably better.)
    FetchLine line;
    if (cfg_.useTraceCache) {
        if (const TraceSegment *seg = tcache_.lookup(ctrl_.pc)) {
            line = buildTraceLine(*seg, now);
            ctrl_.avail = now + 1;
#if TCFILL_PIPE_TRACE_ENABLED
            if (tracer_) {
                for (const auto &di : line.insts)
                    tracePipe(tracer_, obs::PipeStage::Fetch, *di,
                              di->fetchCycle);
            }
#endif
            if (!line.insts.empty())
                out_.lines.push_back(std::move(line));
            return;
        }
    }

    // Trace cache miss: fetch one block through the supporting
    // instruction cache.
    Cycle done = mem_.accessInst(ctrl_.pc, now);
    line = buildICacheLine(done);
    ctrl_.avail = done + 1;
#if TCFILL_PIPE_TRACE_ENABLED
    if (tracer_) {
        for (const auto &di : line.insts)
            tracePipe(tracer_, obs::PipeStage::Fetch, *di,
                      di->fetchCycle);
    }
#endif
    if (!line.insts.empty())
        out_.lines.push_back(std::move(line));
}

} // namespace tcfill::pipeline
