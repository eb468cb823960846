#include "uarch/exec_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tcfill
{

// The wakeup lists pack a source-operand index into the low bits of a
// DynInst pointer (see packWake).
static_assert(alignof(DynInst) >= 8,
              "wake-list pointer tagging needs 3 free low bits");

std::string
ExecCoreParams::check() const
{
    // In 64 bits, so no overflow can wrap into range.
    const std::uint64_t fus =
        std::uint64_t{numClusters} * fusPerCluster;
    if (fus == 0 || fus > 32)
        return "numClusters * fusPerCluster must be in [1,32] (one "
               "ready-mask bit per functional unit)";
    // Bounds the per-unit reservations: 128x the paper's 32 entries.
    if (rsEntries == 0 || rsEntries > 4096)
        return "rsEntries must be in [1,4096]";
    return {};
}

ExecCore::ExecCore(const ExecCoreParams &params, MemoryHierarchy &mem)
    : params_(params), mem_(mem),
      num_fus_(params.numClusters * params.fusPerCluster)
{
    const std::string err = params.check();
    fatal_if(!err.empty(), "execution core: %s", err.c_str());
    rs_used_.assign(num_fus_, 0);
    ready_.resize(num_fus_);
    for (auto &rq : ready_)
        rq.reserve(params.rsEntries);
    ready_min_.assign(num_fus_, kNoCycle);
    fu_busy_until_.assign(num_fus_, 0);
}

void
ExecCore::dispatch(DynInst &di)
{
    panic_if(di.fu < 0 || static_cast<unsigned>(di.fu) >= num_fus_,
             "dispatch: instruction has no FU");
    panic_if(rs_used_[di.fu] >= params_.rsEntries,
             "dispatch: reservation station %d overflow", di.fu);
    ++rs_used_[di.fu];
    if (di.isStore)
        store_window_.push_back(&di);
    subscribeOperands(di);
}

// --------------------------------------------------------------------
// Wakeup machinery
// --------------------------------------------------------------------

void
ExecCore::subscribeOperands(DynInst &di)
{
    // One cycle of schedule stage after issue; kNoCycle (never
    // issued) is sticky through the max() chain and keeps the
    // instruction unarmed forever.
    Cycle ready =
        di.issueCycle == kNoCycle ? kNoCycle : di.issueCycle + 1;
    unsigned pending = 0;
    for (unsigned k = 0; k < di.numSrcs; ++k) {
        // Stores wait only for address operands: the data operand is
        // subscribed (so it is sealed) but never counts toward arming.
        const bool data =
            di.isStore && static_cast<int>(k) == di.dataOperand;
        if (sealOrLink(di, di.src[k], k)) {
            if (!data)
                ++pending;
        } else if (!data) {
            ready = std::max(
                ready,
                operandAvail(di.src[k], static_cast<unsigned>(di.fu)));
        }
    }
    di.readyCycle = ready;
    di.pendingOps = static_cast<std::uint8_t>(pending);
    if (pending == 0 && ready != kNoCycle)
        arm(di, ready);
}

void
ExecCore::subscribeAlias(DynInst &move)
{
    sealOrLink(move, move.moveAlias, kAliasWakeSlot);
}

bool
ExecCore::sealOrLink(DynInst &c, Operand &op, unsigned slot)
{
    if (op.sealed())
        return false;
    DynInst &p = *op.producer;
    if (p.completeCycle != kNoCycle) {
        op.seal(p);
        return false;
    }
    // Producer timing unknown: link onto its wake list, whose walk
    // seals @p op. The producer fires before it can retire, and the
    // window frees younger consumers only after older producers, so
    // the raw link cannot dangle.
    c.wakeNext[slot] = p.wakeHead;
    p.wakeHead = packWake(&c, slot);
    return true;
}

void
ExecCore::arm(DynInst &di, Cycle earliest)
{
    auto &rq = ready_[di.fu];
    di.readyIdx = static_cast<std::uint32_t>(rq.size());
    rq.push_back({&di, earliest});
    ready_min_[di.fu] = std::min(ready_min_[di.fu], earliest);
    ready_mask_ |= 1u << di.fu;
    ++armed_;
}

void
ExecCore::removeFromReady(DynInst &di)
{
    auto &rq = ready_[di.fu];
    const std::uint32_t idx = di.readyIdx;
    const std::uint32_t last =
        static_cast<std::uint32_t>(rq.size()) - 1;
    if (idx != last) {
        rq[idx] = rq[last];
        rq[idx].inst->readyIdx = idx;
    }
    rq.pop_back();
    if (rq.empty()) {
        ready_min_[di.fu] = kNoCycle;
        ready_mask_ &= ~(1u << di.fu);
    }
    di.readyIdx = kNoRsIndex;
    --armed_;
}

void
ExecCore::wakeConsumers(DynInst &producer)
{
    std::uintptr_t cur = producer.wakeHead;
    producer.wakeHead = 0;
    while (cur) {
        DynInst *c = wakePtr(cur);
        const unsigned k = wakeTag(cur);
        cur = c->wakeNext[k];
        c->wakeNext[k] = 0;
        if (c->squashed())
            continue;
        if (k == kAliasWakeSlot) {
            c->moveAlias.seal(producer);
            continue;
        }
        Operand &op = c->src[k];
        op.seal(producer);
        if (c->isStore && static_cast<int>(k) == c->dataOperand)
            continue;   // sealed for finalize; never arms the store
        const Cycle avail =
            operandAvail(op, static_cast<unsigned>(c->fu));
        c->readyCycle = std::max(c->readyCycle, avail);
        if (c->pendingOps > 0 && --c->pendingOps == 0 &&
            c->readyCycle != kNoCycle) {
            arm(*c, c->readyCycle);
        }
    }
}

void
ExecCore::wakeStoreWaiters(DynInst &store)
{
    DynInst *cur = store.memWaiterHead;
    store.memWaiterHead = nullptr;
    while (cur) {
        DynInst *next = cur->memWaiterNext;
        cur->memWaiterNext = nullptr;
        if (!cur->squashed()) {
            // Re-arm; the next select attempt re-evaluates the whole
            // store window (it may defer or park again).
            Cycle at = cur->readyCycle;
            if (store.addrKnown != kNoCycle)
                at = std::max(at, store.addrKnown);
            arm(*cur, at);
        }
        cur = next;
    }
}

void
ExecCore::resetLoadDeferrals()
{
    // A store left the window mid-flight (squash): any load whose
    // eligibility was deferred to a known store-address cycle may now
    // be selectable earlier, so drop every deferral back to its
    // operand readyCycle and let the next select re-evaluate it.
    for (unsigned fu = 0; fu < num_fus_; ++fu) {
        for (ReadyEnt &e : ready_[fu]) {
            if (e.inst->isLoad && e.earliest > e.inst->readyCycle) {
                e.earliest = e.inst->readyCycle;
                ready_min_[fu] =
                    std::min(ready_min_[fu], e.earliest);
            }
        }
    }
}

ExecCore::MemSchedResult
ExecCore::memSchedule(const DynInst &di, Cycle now) const
{
    MemSchedResult res;
    if (!di.onCorrectPath || di.effAddr == kNoAddr)
        return res;     // wrong-path loads model no real access

    Cycle retry = 0;
    DynInst *fwd = nullptr;
    for (DynInst *s : store_window_) {
        if (s->seq >= di.seq)
            break;
        if (s->squashed())
            continue;
        if (s->addrKnown == kNoCycle) {
            // Blocked until this store AGENs: park on it instead of
            // polling (re-armed by wakeStoreWaiters).
            res.kind = MemSched::ParkOn;
            res.park = s;
            return res;
        }
        if (s->addrKnown > now) {
            retry = std::max(retry, s->addrKnown);
        } else if (s->onCorrectPath && s->effAddr != kNoAddr &&
                   (s->effAddr >> 2) == (di.effAddr >> 2)) {
            fwd = s;        // youngest older match wins
        }
    }
    if (retry > now) {
        // Every blocking address is known: sleep until the last one.
        res.kind = MemSched::RetryAt;
        res.retry = retry;
        return res;
    }
    if (fwd && fwd->completeCycle == kNoCycle) {
        // Forwarding store's data is not ready; its completion event
        // re-arms us.
        res.kind = MemSched::ParkOn;
        res.park = fwd;
        return res;
    }
    res.fwd = fwd;
    return res;
}

// --------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------

void
ExecCore::startExecution(DynInst &di, Cycle now,
                         const DynInst *forward_from)
{
    di.startCycle = now;
    ++selected_;
    tracePipe(tracer_, obs::PipeStage::Execute, di, now);

    // Bypass-delay accounting (paper figure 7): did the last-arriving
    // source value arrive later than it would have with a free
    // (zero-latency) cross-cluster network?
    Cycle max_with = 0;
    Cycle max_without = 0;
    for (unsigned k = 0; k < di.numSrcs; ++k) {
        if (di.isStore && static_cast<int>(k) == di.dataOperand)
            continue;
        const Operand &op = di.src[k];
        const Cycle with =
            operandAvail(op, static_cast<unsigned>(di.fu));
        if (with != kNoCycle) {
            max_with = std::max(max_with, with);
            max_without = std::max(max_without, op.cycle);
        }
    }
    if (max_with > max_without) {
        di.bypassDelayed = true;
        ++bypass_delayed_;
    }

    // Functional-unit occupancy: divides are unpipelined.
    fu_busy_until_[di.fu] =
        opClass(di.inst.op) == OpClass::IntDiv ? now + di.latency
                                               : now + 1;

    if (di.isStore) {
        di.phase = InstPhase::Executing;
        di.addrKnown = now + 1;
        if (di.onCorrectPath && di.effAddr != kNoAddr)
            mem_.accessData(di.effAddr, now + 1);   // write-allocate
        // Complete once the store data is available.
        if (di.dataOperand >= 0) {
            Cycle data = operandAvail(
                di.src[di.dataOperand],
                static_cast<unsigned>(di.fu));
            if (data != kNoCycle) {
                di.completeCycle = std::max(di.addrKnown, data);
                di.phase = InstPhase::Complete;
                tracePipe(tracer_, obs::PipeStage::Complete, di,
                          di.completeCycle);
                wakeConsumers(di);
                notifyComplete(di);
            } else {
                pending_stores_.push_back(&di);
            }
        } else {
            di.completeCycle = di.addrKnown;
            di.phase = InstPhase::Complete;
            tracePipe(tracer_, obs::PipeStage::Complete, di,
                      di.completeCycle);
            wakeConsumers(di);
            notifyComplete(di);
        }
        wakeStoreWaiters(di);   // address (and maybe data) now known
        return;
    }

    if (di.isLoad) {
        const Cycle agen_done = now + 1;
        if (!di.onCorrectPath || di.effAddr == kNoAddr) {
            di.completeCycle = agen_done + 1;
        } else if (forward_from) {
            di.completeCycle =
                std::max(agen_done, forward_from->completeCycle) + 1;
            ++load_forwards_;
        } else {
            Cycle done = mem_.accessData(di.effAddr, agen_done);
            di.completeCycle = done == agen_done ? agen_done + 1 : done;
        }
        di.phase = InstPhase::Complete;
        tracePipe(tracer_, obs::PipeStage::Complete, di,
                  di.completeCycle);
        wakeConsumers(di);
        notifyComplete(di);
        return;
    }

    di.completeCycle = now + di.latency;
    di.phase = InstPhase::Complete;
    tracePipe(tracer_, obs::PipeStage::Complete, di,
              di.completeCycle);
    wakeConsumers(di);
    notifyComplete(di);
}

void
ExecCore::finalizePendingStores(Cycle now)
{
    (void)now;
    auto it = pending_stores_.begin();
    while (it != pending_stores_.end()) {
        DynInst &s = **it;
        if (s.squashed()) {
            it = pending_stores_.erase(it);
            continue;
        }
        Cycle data = operandAvail(s.src[s.dataOperand],
                                  static_cast<unsigned>(s.fu));
        if (data != kNoCycle) {
            s.completeCycle = std::max(s.addrKnown, data);
            s.phase = InstPhase::Complete;
            tracePipe(tracer_, obs::PipeStage::Complete, s,
                      s.completeCycle);
            wakeConsumers(s);
            wakeStoreWaiters(s);
            notifyComplete(s);
            it = pending_stores_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ExecCore::tick(Cycle now)
{
    if (!pending_stores_.empty())
        finalizePendingStores(now);
    if (armed_ == 0)
        return;

    // Only FUs with armed instructions participate (ascending order,
    // identical to a full scan of the per-FU queues).
    for (std::uint32_t mask = ready_mask_; mask; mask &= mask - 1) {
        const unsigned fu =
            static_cast<unsigned>(__builtin_ctz(mask));
        if (fu_busy_until_[fu] > now || ready_min_[fu] > now)
            continue;
        auto &rq = ready_[fu];
        // Oldest-first select: one min-seq pass over the (unsorted)
        // ready queue. A memory-blocked load leaves the eligible set
        // (its earliest is bumped past now, or it parks on a store),
        // so re-scanning visits candidates in exactly the seq order a
        // sorted walk would. Arms performed by startExecution() land
        // with earliest >= now + 1 and cannot be selected this cycle.
        for (;;) {
            DynInst *cand = nullptr;
            Cycle min_future = kNoCycle;
            for (const ReadyEnt &e : rq) {
                if (e.earliest <= now) {
                    if (!cand || e.inst->seq < cand->seq)
                        cand = e.inst;
                } else {
                    min_future = std::min(min_future, e.earliest);
                }
            }
            if (!cand) {
                // Nothing eligible: the scan just computed the exact
                // minimum, so retighten the lazy bound.
                ready_min_[fu] = min_future;
                break;
            }
            const DynInst *forward = nullptr;
            if (cand->isLoad) {
                MemSchedResult r = memSchedule(*cand, now);
                if (r.kind == MemSched::RetryAt) {
                    ++mem_sched_stalls_;
                    rq[cand->readyIdx].earliest = r.retry;
                    continue;
                }
                if (r.kind == MemSched::ParkOn) {
                    ++mem_sched_stalls_;
                    removeFromReady(*cand);
                    cand->memWaiterNext = r.park->memWaiterHead;
                    r.park->memWaiterHead = cand;
                    continue;
                }
                forward = r.fwd;
            }
            removeFromReady(*cand);
            --rs_used_[fu];
            startExecution(*cand, now, forward);
            break;
        }
    }
}

Cycle
ExecCore::nextEventCycle(Cycle next) const
{
    Cycle best = kNoCycle;
    for (const DynInst *s : pending_stores_) {
        if (s->squashed())
            continue;   // drained lazily; timing-invisible
        if (operandAvail(s->src[s->dataOperand],
                         static_cast<unsigned>(s->fu)) != kNoCycle) {
            best = next;    // finalizes on the very next tick
            break;
        }
    }
    if (armed_ == 0)
        return best;
    for (std::uint32_t mask = ready_mask_; mask && best > next;
         mask &= mask - 1) {
        const unsigned fu =
            static_cast<unsigned>(__builtin_ctz(mask));
        Cycle m = kNoCycle;
        for (const ReadyEnt &e : ready_[fu])
            m = std::min(m, e.earliest);
        Cycle cand = std::max(std::max(m, fu_busy_until_[fu]), next);
        best = std::min(best, cand);
    }
    return best;
}

// --------------------------------------------------------------------
// Squash / retire / bookkeeping
// --------------------------------------------------------------------

void
ExecCore::squash(DynInst &di)
{
    if (di.phase == InstPhase::Waiting) {
        panic_if(rs_used_[di.fu] == 0,
                 "squash: seq %llu waits in empty station %d",
                 static_cast<unsigned long long>(di.seq), di.fu);
        --rs_used_[di.fu];
        if (di.readyIdx != kNoRsIndex)
            removeFromReady(di);
    }
    di.phase = InstPhase::Squashed;
}

void
ExecCore::purgeSquashed()
{
    std::erase_if(pending_stores_,
                  [](const DynInst *di) { return di->squashed(); });
    // Squashed stores release their parked loads (after the whole
    // range is marked, so a squashed load is not re-armed); any store
    // leaving the window may also unblock loads deferred to a known
    // store-address cycle.
    bool store_removed = false;
    for (auto it = store_window_.begin();
         it != store_window_.end();) {
        if (!(*it)->squashed()) {
            ++it;
            continue;
        }
        DynInst *s = *it;
        it = store_window_.erase(it);
        store_removed = true;
        wakeStoreWaiters(*s);
    }
    if (store_removed)
        resetLoadDeferrals();
}

void
ExecCore::retireStore(const DynInst &di)
{
    auto it = std::find(store_window_.begin(), store_window_.end(),
                        &di);
    if (it != store_window_.end())
        store_window_.erase(it);
}

std::size_t
ExecCore::occupancy() const
{
    std::size_t n = 0;
    for (unsigned used : rs_used_)
        n += used;
    return n;
}

void
ExecCore::regStats(stats::Group &group)
{
    group.addCounter("core.selected", selected_,
                     "instructions issued to functional units");
    group.addCounter("core.bypass_delayed", bypass_delayed_,
                     "instructions whose last operand was delayed by "
                     "cross-cluster bypass");
    group.addCounter("core.load_forwards", load_forwards_,
                     "loads satisfied by store forwarding");
    // Not a timing fact: it counts select attempts (one per
    // RetryAt/ParkOn outcome), not cycles or instructions, so it is
    // registered non-timing and stays out of the obs::Timeline series.
    group.addCounter("core.mem_sched_stalls", mem_sched_stalls_,
                     "load selects blocked by unknown store addresses",
                     /*timing=*/false);
}

} // namespace tcfill
