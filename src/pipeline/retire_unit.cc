#include "pipeline/retire_unit.hh"

#include <cstdio>
#include <string>

#include "common/logging.hh"

namespace tcfill::pipeline
{

RetireUnit::RetireUnit(const RetireEnv &env)
    : cfg_(env.cfg), window_(env.window), oracle_(env.oracle),
      fill_(env.fill), core_(env.core), ctrl_(env.ctrl),
      rename_(env.rename), arena_(env.arena)
{
}

void
RetireUnit::regStats(stats::Group &master)
{
    master.addCounter("retire.retired", retired_,
                      "instructions committed");
    master.addCounter("retire.dyn_moves", dyn_moves_,
                      "retired move-marked instructions");
    master.addCounter("retire.dyn_reassoc", dyn_reassoc_,
                      "retired reassociated instructions");
    master.addCounter("retire.dyn_scaled", dyn_scaled_,
                      "retired scaled-add instructions");
    master.addCounter("retire.dyn_elided", dyn_elided_,
                      "retired dead-write-elided instructions");
    master.addCounter("retire.dyn_move_idioms", dyn_move_idioms_,
                      "retired architectural move idioms");
    master.addCounter("retire.bypass_delayed", bypass_delayed_,
                      "retired insts whose last operand crossed "
                      "clusters");
}

void
RetireUnit::tick(Cycle now)
{
    unsigned count = 0;
    while (!window_.empty()) {
        // The window owns the head; its slot is popped and the
        // instruction freed at the end of the commit body, after the
        // last use.
        DynInst *di = window_.insts.front();
        if (di->squashed()) {
            window_.insts.pop_front();  // squashed slots retire free
            freeDynInst(arena_, di);
            continue;
        }
        if (count >= cfg_.retireWidth)
            break;
        if (di->phase != InstPhase::Complete ||
            di->completeCycle > now) {
            break;
        }
        if (di->inactive)
            break;  // must be activated by its branch first
        panic_if(!di->onCorrectPath,
                 "retiring a wrong-path instruction");

        ++count;
        ++retired_;
        if (probe_cycle_ && retired_.value() == probe_at_)
            *probe_cycle_ = now + 1;    // == res.cycles of a run capped here
        last_retire_cycle_ = now;
        tracePipe(tracer_, obs::PipeStage::Retire, *di, now);

        // Predictors train at fetch (see FetchEngine); retirement
        // only drives the fill unit and bookkeeping.
        if (di->isStore)
            core_.retireStore(*di);

        // The committed-path record of this instruction carries its
        // architectural form for the fill unit.
        const ExecRecord &rec = oracle_.front();
        panic_if(rec.pc != di->pc,
                 "retired 0x%llx but oracle front is 0x%llx",
                 static_cast<unsigned long long>(di->pc),
                 static_cast<unsigned long long>(rec.pc));
        fill_.retire(rec, now, di->missLineStart);

        // Dynamic optimization accounting (Table 2, figures 3-5, 7).
        if (di->moveMarked)
            ++dyn_moves_;
        if (di->reassociated)
            ++dyn_reassoc_;
        if (di->scaled)
            ++dyn_scaled_;
        if (di->elided)
            ++dyn_elided_;
        if (di->moveIdiom)
            ++dyn_move_idioms_;
        if (di->bypassDelayed)
            ++bypass_delayed_;

        // After the commit's counter increments, so the interval that
        // ends on this instruction includes it in its deltas.
        if (timeline_)
            timeline_->onRetire(di->pc, rec.inst.endsBlock(), now);

        if (di->seq == ctrl_.stallSerialize)
            ctrl_.stallSerialize = 0;

        // Later renames read the completion cycle, not the block.
        rename_.sealRetired(*di);
        oracle_.popRetired();
        window_.insts.pop_front();
        freeDynInst(arena_, di);

        if (instCapReached())
            return;
    }
}

void
RetireUnit::panicIfDeadlocked(Cycle now) const
{
    if (now - last_retire_cycle_ <= kDeadlockWindow || window_.empty())
        return;
    const DynInst &f = *window_.insts.front();
    std::string ops;
    for (unsigned k = 0; k < f.numSrcs; ++k) {
        const Operand &op = f.src[k];
        char buf[96];
        // An unsealed operand's producer is older than the window
        // head, so it has left the window: print no field of it.
        if (op.sealed()) {
            std::snprintf(buf, sizeof(buf), " src%u@%llu(fu%d)", k,
                static_cast<unsigned long long>(op.cycle), op.fu);
        } else {
            std::snprintf(buf, sizeof(buf), " src%u<-unsealed", k);
        }
        ops += buf;
    }
    panic("no retirement for %llu cycles: model deadlock "
          "(window=%zu, front pc=0x%llx '%s' seq=%llu phase=%d "
          "inactive=%d correct=%d fu=%d issue=%lld cc=%lld%s)",
          static_cast<unsigned long long>(kDeadlockWindow),
          window_.size(),
          static_cast<unsigned long long>(f.pc),
          disassemble(f.inst).c_str(),
          static_cast<unsigned long long>(f.seq),
          static_cast<int>(f.phase), f.inactive ? 1 : 0,
          f.onCorrectPath ? 1 : 0, f.fu,
          f.issueCycle == kNoCycle
              ? -1LL
              : static_cast<long long>(f.issueCycle),
          f.completeCycle == kNoCycle
              ? -1LL
              : static_cast<long long>(f.completeCycle),
          ops.c_str());
}

} // namespace tcfill::pipeline
