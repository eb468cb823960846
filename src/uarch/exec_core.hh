/**
 * @file
 * The clustered out-of-order execution engine (paper §3): 16
 * symmetric functional units in 4 clusters of 4, a 32-entry
 * reservation station per unit, single-cycle intra-cluster bypass and
 * an extra cycle to forward across clusters, plus the conservative
 * memory scheduler (no memory operation bypasses a store with an
 * unknown address).
 *
 * Selection is producer-driven wakeup/select (DESIGN.md §13):
 * dependent lists built at dispatch, per-FU ready queues with
 * oldest-first select, and loads re-armed by store-window events.
 */

#ifndef TCFILL_UARCH_EXEC_CORE_HH
#define TCFILL_UARCH_EXEC_CORE_HH

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "uarch/dyn_inst.hh"
#include "uarch/pipe_hooks.hh"

namespace tcfill
{

/** Execution engine configuration. */
struct ExecCoreParams
{
    unsigned numClusters = 4;
    unsigned fusPerCluster = 4;
    unsigned rsEntries = 32;
    Cycle crossClusterDelay = 1;

    /**
     * Why these parameters cannot build a core ("" when
     * they can), naming the offending field. configFromJson()
     * rejects it; the constructor fatals on it.
     */
    std::string check() const;
};

/** Clustered reservation stations + functional units + bypass. */
class ExecCore
{
  public:
    /**
     * Completion hook: invoked whenever an instruction's completion
     * cycle becomes known (at FU selection, or when a pending store's
     * data arrives). A plain function pointer + context instead of a
     * per-tick std::function keeps the hottest simulator path free of
     * type-erased indirect calls; the sink takes a raw reference and
     * keeps only the seq of an instruction it needs later (the
     * RecoveryController's resolution events).
     */
    using CompleteFn = void (*)(void *ctx, DynInst &di);

    ExecCore(const ExecCoreParams &params, MemoryHierarchy &mem);

    /** Install the completion sink (the recovery resolution filter). */
    void
    setCompleteHook(CompleteFn fn, void *ctx)
    {
        complete_fn_ = fn;
        complete_ctx_ = ctx;
    }

    unsigned numFus() const { return num_fus_; }

    /** Free reservation-station slots for @p fu. */
    unsigned
    rsFree(unsigned fu) const
    {
        panic_if(fu >= num_fus_, "rsFree: bad FU %u", fu);
        return params_.rsEntries - rs_used_[fu];
    }

    /**
     * Insert an issued instruction into its FU's station and
     * subscribe its source operands (sealing those whose producer's
     * timing is already known).
     */
    void dispatch(DynInst &di);

    /**
     * Subscribe a marked move's moveAlias, which never reaches a
     * station: seal it now if its producer's timing is known, else
     * link the move onto the producer's wake list so the producer's
     * completion seals it.
     */
    void subscribeAlias(DynInst &move);

    /**
     * One scheduling/execution cycle: each free FU selects its oldest
     * ready instruction and begins execution. Completion times are
     * reported through the hook installed with setCompleteHook().
     */
    void tick(Cycle now);

    /**
     * Earliest future cycle (>= @p next) at which this core can do
     * any work: a select of an armed instruction, or the finalization
     * of a pending store whose data timing is known. kNoCycle when no
     * internal event is scheduled (the core is fully quiescent until
     * something external arms an instruction). Used by the
     * Processor's cycle-skipping.
     */
    Cycle nextEventCycle(Cycle next) const;

    /**
     * Squash one instruction: mark it Squashed and, if it still waits
     * in its reservation station, free the slot and drop its
     * ready-queue entry. A squash calls this for every instruction in
     * its range (the window walk, RecoveryController::squashWindow),
     * then purgeSquashed() once.
     */
    void squash(DynInst &di);

    /**
     * Finish a squash: drop the instructions squash() marked from the
     * pending stores and the store window, releasing the loads parked
     * on a squashed store.
     */
    void purgeSquashed();

    /** Notify the core a store retired (leaves the memory window). */
    void retireStore(const DynInst &di);

    /**
     * Cycle a sealed operand becomes usable by a consumer on @p fu;
     * kNoCycle while it is unsealed.
     */
    Cycle
    operandAvail(const Operand &op, unsigned fu) const
    {
        if (!op.sealed())
            return kNoCycle;
        Cycle avail = op.cycle;
        if (op.fu >= 0 &&
            static_cast<unsigned>(op.fu) / params_.fusPerCluster !=
                fu / params_.fusPerCluster) {
            avail += params_.crossClusterDelay;
        }
        return avail;
    }

    /** Instructions waiting in the reservation stations. */
    std::size_t occupancy() const;

    // ---- statistics -----------------------------------------------------
    std::uint64_t bypassDelayedCount() const
    {
        return bypass_delayed_.value();
    }
    std::uint64_t selectedCount() const { return selected_.value(); }
    std::uint64_t loadForwardsCount() const
    {
        return load_forwards_.value();
    }

    void regStats(stats::Group &group);

    /**
     * Attach a lifecycle tracer (forwarded by Processor::setTracer);
     * emits Execute at FU selection and Complete when an
     * instruction's completion cycle becomes known.
     */
    void setTracer(obs::PipeTracer *tracer) { tracer_ = tracer; }

  private:
    /** A wakeup-armed instruction awaiting FU select. */
    struct ReadyEnt
    {
        DynInst *inst;
        /**
         * Select-eligibility cycle: the operand readyCycle, deferred
         * further when the memory scheduler blocked a load until a
         * known store-address cycle.
         */
        Cycle earliest;
    };

    /** Outcome of one memory-scheduler evaluation. */
    enum class MemSched : std::uint8_t
    {
        Ok,         ///< may issue (forward set when store-forwarded)
        RetryAt,    ///< blocked until a known cycle (retry field)
        ParkOn,     ///< blocked on a store event (park field)
    };
    struct MemSchedResult
    {
        MemSched kind = MemSched::Ok;
        Cycle retry = 0;
        DynInst *park = nullptr;
        /** Forwarding store (Ok only), nullptr when none. */
        const DynInst *fwd = nullptr;
    };

    void notifyComplete(DynInst &di)
    {
        if (complete_fn_)
            complete_fn_(complete_ctx_, di);
    }

    void startExecution(DynInst &di, Cycle now,
                        const DynInst *forward_from);
    void finalizePendingStores(Cycle now);

    // ---- wakeup machinery -----------------------------------------------
    void subscribeOperands(DynInst &di);
    /**
     * Seal @p op now if its producer's timing is known; else link
     * @p c, operand slot @p slot, onto the producer's wake list and
     * return true.
     */
    bool sealOrLink(DynInst &c, Operand &op, unsigned slot);
    void arm(DynInst &di, Cycle earliest);
    void removeFromReady(DynInst &di);
    void wakeConsumers(DynInst &producer);
    void wakeStoreWaiters(DynInst &store);
    void resetLoadDeferrals();
    MemSchedResult memSchedule(const DynInst &di, Cycle now) const;

    static std::uintptr_t
    packWake(DynInst *c, unsigned k)
    {
        return reinterpret_cast<std::uintptr_t>(c) | k;
    }
    static DynInst *
    wakePtr(std::uintptr_t v)
    {
        return reinterpret_cast<DynInst *>(v & ~std::uintptr_t(7));
    }
    static unsigned
    wakeTag(std::uintptr_t v)
    {
        return static_cast<unsigned>(v & 7);
    }

    ExecCoreParams params_;
    MemoryHierarchy &mem_;
    unsigned num_fus_;

    // All core-internal containers hold raw pointers: an instruction
    // enters them only at dispatch (when the window already owns it)
    // and leaves them before its window slot is popped — select
    // empties its ready entry, retireStore() empties the store window
    // during the store's own commit, a pending store cannot retire
    // until its finalize, and every squash removes the squashed range
    // from all of them (squash(), purgeSquashed()) before the window
    // drains it.
    /** Occupied reservation-station slots, per FU. */
    std::vector<unsigned> rs_used_;
    std::vector<std::vector<ReadyEnt>> ready_;  // per FU
    /**
     * Per-FU lazy lower bound on the earliest select-eligibility
     * cycle in ready_[fu]: select skips the whole queue while the
     * bound is in the future. May be stale-low (never stale-high) —
     * a scan that selects nothing retightens it.
     */
    std::vector<Cycle> ready_min_;
    /** Bit per FU with a nonempty ready queue (select iterates this). */
    std::uint32_t ready_mask_ = 0;
    /** Total armed entries across ready_ (select fast-path gate). */
    std::size_t armed_ = 0;
    std::vector<Cycle> fu_busy_until_;

    /** In-flight stores in program order (memory scheduler window). */
    std::deque<DynInst *> store_window_;
    /** Stores executing whose data operand is still outstanding. */
    std::vector<DynInst *> pending_stores_;

    CompleteFn complete_fn_ = nullptr;
    void *complete_ctx_ = nullptr;

    stats::Counter selected_;
    stats::Counter bypass_delayed_;
    stats::Counter load_forwards_;
    stats::Counter mem_sched_stalls_;

    obs::PipeTracer *tracer_ = nullptr;
};

} // namespace tcfill

#endif // TCFILL_UARCH_EXEC_CORE_HH
