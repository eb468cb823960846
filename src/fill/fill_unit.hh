/**
 * @file
 * The fill unit (paper §3, §4.1): collects retired instructions into
 * multi-block trace segments, applies branch promotion and the four
 * dynamic trace optimizations, and installs finished segments into
 * the trace cache after a configurable fill-pipeline latency.
 */

#ifndef TCFILL_FILL_FILL_UNIT_HH
#define TCFILL_FILL_FILL_UNIT_HH

#include <deque>
#include <string>
#include <vector>

#include "arch/executor.hh"
#include "bpred/predictor.hh"
#include "common/stats.hh"
#include "fill/passes.hh"
#include "fill/policy.hh"
#include "obs/pipe_trace.hh"
#include "trace/segment.hh"
#include "trace/tcache.hh"

namespace tcfill
{

/** Fill unit configuration (paper defaults). */
struct FillUnitConfig
{
    /** Latency through the fill pipeline, in cycles (paper: 1/5/10). */
    Cycle latency = 5;
    /**
     * Restart the pending segment at instructions whose fetch missed
     * the trace cache (the default boundary-convergence mechanism):
     * the fill unit then builds exactly the segments the fetch stream
     * asks for, while still packing freely across iterations once
     * fetch is hitting.
     */
    bool restartAtMissTargets = true;
    /** Promote strongly biased branches via the bias table. */
    bool promoteBranches = true;
    unsigned maxInsts = kSegmentMaxInsts;
    unsigned maxCondBranches = kSegmentMaxCondBranches;
    FillOptimizations opts{};
    /** Pass-selection policy (default: static, i.e. opts as-is). */
    FillPolicyParams policy{};

    /**
     * Why this configuration cannot build a fill unit ("" when it
     * can), naming the offending field; policy.check() covers the
     * policy. configFromJson() rejects it; the constructor fatals on
     * it.
     */
    std::string check() const;
};

/**
 * The fill unit. Call retire() for every committed instruction in
 * order; call tick() each cycle (or at fetch time) to install
 * segments whose fill latency has elapsed.
 */
class FillUnit
{
  public:
    FillUnit(const FillUnitConfig &config, TraceCache &tcache,
             BiasTable &bias);

    /**
     * Collect one retired instruction at cycle @p now.
     * @param miss_target the instruction's fetch missed the trace
     *        cache and started an instruction-cache line — a future
     *        fetch address the trace cache should serve.
     */
    void retire(const ExecRecord &rec, Cycle now, bool miss_target = false);

    /** Install all segments whose readyCycle <= @p now. */
    void tick(Cycle now);

    /** Force the pending partial segment to finalize (tests). */
    void flushPending(Cycle now);

    const FillUnitConfig &config() const { return config_; }

    // ---- statistics ---------------------------------------------------
    std::uint64_t segmentsBuilt() const { return segments_.value(); }
    std::uint64_t instsCollected() const { return insts_.value(); }
    std::uint64_t movesMarked() const { return moves_marked_.value(); }

    // ---- pass-selection policy ----------------------------------------
    /** Stable address of the active mask (Timeline interval probe). */
    const std::uint8_t *activeMaskPtr() const { return policy_.maskPtr(); }

    /** Decision record plus pass transform totals (SimResult). */
    PolicySummary policySummary() const;

    /** Mean instructions per finalized segment. */
    double avgSegmentLength() const;

    void regStats(stats::Group &group);

    /**
     * Attach a lifecycle tracer (usually via Processor::setTracer);
     * emits one FillEvent per finalized segment, summarizing the
     * transforms each optimization pass applied.
     */
    void setTracer(obs::PipeTracer *tracer) { tracer_ = tracer; }

  private:
    void finalize(Cycle now);

    FillUnitConfig config_;
    TraceCache &tcache_;
    BiasTable &bias_;

    FillPolicy policy_;
    /** Mask applied to the previous finalize (policy-switch tracing). */
    int last_mask_ = -1;

    TraceSegment pending_;
    unsigned pending_cond_branches_ = 0;
    unsigned pending_blocks_ = 1;
    unsigned pending_cf_region_ = 0;
    PlacementHints placement_hints_;

    struct InFlight
    {
        Cycle readyCycle;
        TraceSegment seg;
    };
    std::deque<InFlight> fill_pipe_;

    stats::Counter segments_;
    stats::Counter insts_;
    // Transforms runPasses() applied, summed over every segment.
    stats::Counter moves_marked_;
    stats::Counter reassociations_;
    stats::Counter scaled_adds_;
    stats::Counter dead_elided_;
    stats::Counter promoted_branches_;
    stats::Histogram seg_length_{kSegmentMaxInsts + 1};

    obs::PipeTracer *tracer_ = nullptr;
};

} // namespace tcfill

#endif // TCFILL_FILL_FILL_UNIT_HH
