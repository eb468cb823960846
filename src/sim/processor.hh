/**
 * @file
 * The cycle-level pipeline simulator as a thin composition root: it
 * owns the shared substrates (functional executor, memory hierarchy,
 * trace cache, fill unit, bias table, committed-path oracle, the
 * clustered ExecCore and the DynInst slab arena), wires the four
 * pipeline stages in src/pipeline/ around them through explicit latch
 * structs, advances the cycle counter, and assembles the SimResult
 * from the stage stat groups. The semantics — trace-cache/I-cache
 * fetch with multiple-branch prediction and inactive issue, rename
 * with move execution, clustered out-of-order issue (the ExecCore),
 * in-order retirement feeding the fill unit, and checkpoint-repair
 * misprediction recovery — live in those classes (DESIGN.md §10).
 *
 * Timing methodology: the functional Executor supplies the committed
 * path; fetch follows it while consulting the real predictor, trace
 * cache and caches, so all speculation penalties (including the
 * inactive-issue rescue the paper's baseline relies on) are charged
 * at branch-resolution time. See DESIGN.md §3 for the wrong-path
 * modeling notes.
 */

#ifndef TCFILL_SIM_PROCESSOR_HH
#define TCFILL_SIM_PROCESSOR_HH

#include <memory>
#include <optional>
#include <string>

#include "arch/executor.hh"
#include "bpred/predictor.hh"
#include "fill/fill_unit.hh"
#include "mem/cache.hh"
#include "obs/host_prof.hh"
#include "obs/pipe_trace.hh"
#include "obs/timeline.hh"
#include "pipeline/dispatch_rename.hh"
#include "pipeline/fetch_engine.hh"
#include "pipeline/latches.hh"
#include "pipeline/oracle.hh"
#include "pipeline/recovery.hh"
#include "pipeline/retire_unit.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "trace/tcache.hh"
#include "uarch/exec_core.hh"
#include "uarch/inst_pool.hh"

namespace tcfill
{

/** One simulated processor bound to a program. */
class Processor
{
  public:
    /** Build the machine around a live Executor of @p prog. */
    Processor(const Program &prog, const SimConfig &cfg);

    /**
     * Build the machine around an externally owned committed-path
     * source instead of a live Executor: a trace-file ReplayExecutor,
     * a RecordingSource tee, or a functionally fast-forwarded
     * Executor (sampling). @p workload labels the result and
     * @p entry is the first fetch PC (the source's next record's PC).
     * @p src must outlive this Processor.
     */
    Processor(CommitSource &src, const std::string &workload,
              Addr entry, const SimConfig &cfg);

    /** Frees the instructions still in the window and fetch latch. */
    ~Processor();
    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /** Run to completion (or the configured caps); returns results. */
    SimResult run();

    const TraceCache &traceCache() const { return tcache_; }
    const ExecCore &core() const { return core_; }

    /** Dump all registered component statistics. */
    void dumpStats(std::ostream &os);

    /** Hierarchical JSON form of the component statistics. */
    void dumpStatsJson(std::ostream &os);

    /**
     * Attach a pipeline lifecycle tracer (nullptr detaches); must be
     * called before run(). Forwarded to every stage, the ExecCore and
     * the fill unit. Purely observational — a traced run's
     * cycles and IPC are bit-identical to an untraced run (asserted
     * in tests/test_obs).
     */
    void setTracer(obs::PipeTracer *tracer);

    /**
     * Arm the retire unit's cycles-at-retired-count probe; must be
     * set before run(). When the @p at th instruction commits, *out
     * receives the cycle count a run capped at maxInsts == @p at
     * would have reported. Timing-invisible — see
     * pipeline::RetireUnit::setRetireCycleProbe.
     */
    void setRetireCycleProbe(InstSeqNum at, Cycle *out);

    /**
     * Attach the host self-profiler (nullptr detaches); must be set
     * before run(). Wraps each stage tick in a ScopedHostTimer so
     * host.profile attributes wall-clock to stages. Observational
     * only: simulated cycles are bit-identical with or without it.
     */
    void setHostProfiler(obs::HostProfiler *prof)
    {
        host_prof_ = prof;
    }

  private:
    /**
     * The one wiring path: @p prog set builds a live Executor (and
     * @p src is null); otherwise @p src is the external source.
     */
    Processor(const Program *prog, CommitSource *src,
              const std::string &workload, Addr entry,
              const SimConfig &cfg);

    void doCycle();
    void doCycleProfiled();
    /**
     * Event-driven idle-cycle elision: when no latch holds work for
     * the next tick, advance cycle_ directly to the earliest cycle
     * any stage can act (fetch unblocks, a resolution event fires,
     * the window head completes, or the core selects/finalizes).
     * Pure host-time optimization — every skipped cycle is one where
     * doCycle() would have been a no-op, so the timing model and all
     * statistics are bit-identical (DESIGN.md §13).
     */
    void skipIdleCycles();

    /** Instructions in the window plus those in the fetch latch. */
    std::size_t inFlight() const;

    // ---- members ----------------------------------------------------
    // Declared first so it is destroyed last: every DynInst the
    // members below hold lives in a block of this arena, and the
    // destructor frees the window's and fetch latch's before the
    // arena checks that none is left.
    SlabArena inst_pool_;

    SimConfig cfg_;
    /** Live-mode Executor; empty when an external source is used. */
    std::optional<Executor> own_exec_;
    /** The committed-path source (own_exec_ or the external one). */
    CommitSource &src_;
    std::string workload_;
    Addr entry_pc_;

    MemoryHierarchy mem_;
    BiasTable bias_;
    TraceCache tcache_;
    FillUnit fill_;
    pipeline::OracleStream oracle_;

    // Inter-stage latches (see pipeline/latches.hh for the data flow).
    pipeline::FetchControl ctrl_;
    pipeline::FetchLatch fetch_latch_;
    pipeline::InstWindow window_;

    /**
     * The out-of-order back end: dispatch inserts into its
     * reservation stations, doCycle() runs its select/execute cycle,
     * and recovery is its completion sink (and owns the resolution
     * events that sink queues).
     */
    ExecCore core_;

    // The four stages. Declaration order is construction order:
    // recovery borrows the dispatch stage's rename table.
    pipeline::FetchEngine fetch_;
    pipeline::DispatchRename dispatch_;
    pipeline::RetireUnit retire_;
    pipeline::RecoveryController recovery_;

    Cycle cycle_ = 0;

    stats::Group stats_;

    /** Interval telemetry (cfg_.statsInterval != 0 only). */
    std::unique_ptr<obs::Timeline> timeline_;
    obs::HostProfiler *host_prof_ = nullptr;
};

/** Build, run and summarize one (program, config) pair. */
SimResult simulate(const Program &prog, const SimConfig &cfg);

} // namespace tcfill

#endif // TCFILL_SIM_PROCESSOR_HH
