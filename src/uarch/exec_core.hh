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
     * constructs an owning handle only if it keeps the instruction
     * (the RecoveryController does so for the branches it queues for
     * resolution).
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
        return params_.rsEntries -
               static_cast<unsigned>(rs_[fu].size());
    }

    /** Insert an issued instruction into its FU's station. */
    void dispatch(DynInst &di);
    void dispatch(const DynInstPtr &di) { dispatch(*di); }

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
     * Squash instructions with seq in [lo, hi), except those in
     * [rescue_lo, rescue_hi). Removes them from stations and pending
     * queues and marks them Squashed.
     */
    void squashRange(InstSeqNum lo, InstSeqNum hi,
                     InstSeqNum rescue_lo = 0, InstSeqNum rescue_hi = 0);

    /** Notify the core a store retired (leaves the memory window). */
    void retireStore(const DynInstPtr &di);

    /** Cycle an operand becomes usable by a consumer on @p fu. */
    Cycle
    operandAvail(const Operand &op, unsigned fu) const
    {
        if (!op.producer)
            return op.rfAvail;
        const DynInst &p = *op.producer;
        if (p.completeCycle == kNoCycle)
            return kNoCycle;
        Cycle avail = p.completeCycle;
        if (p.fu >= 0 &&
            p.cluster(params_.fusPerCluster) !=
                fu / params_.fusPerCluster) {
            avail += params_.crossClusterDelay;
        }
        return avail;
    }

    /** Total in-flight instructions across all stations. */
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
    void arm(DynInst &di, Cycle earliest);
    void removeFromReady(DynInst &di);
    void removeFromStation(DynInst &di);
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
    // and leaves them before its window slot is popped — selects empty
    // the station, retireStore() empties the store window during the
    // store's own commit, a pending store cannot retire until its
    // finalize, and every squash removes the squashed range from all
    // of them (RecoveryController::squashWindow) before the window
    // drains it.
    std::vector<std::vector<DynInst *>> rs_;    // per FU
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
