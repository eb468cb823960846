/**
 * @file
 * Phase-resolved interval telemetry: the Timeline collector cuts the
 * run into fixed-length intervals of retired instructions and
 * snapshots the delta of every registered timing-model counter
 * (stats::Group) at each boundary, yielding a per-interval time
 * series — IPC, trace-cache hit/miss, fill-unit transform counts,
 * bypass-delay attribution — instead of end-of-run totals. When phase
 * tagging is enabled it additionally tracks each interval's
 * basic-block vector (SimPoint-style, at commit) and k-means-clusters
 * the intervals with the same fixed-seed machinery the simpoint
 * selector uses (common/kmeans.hh), labeling every interval with a
 * phase ID numbered by first appearance.
 *
 * Determinism contract: the collector observes only architectural
 * commit order and timing-model counters, so the serialized
 * `timeline` section is byte-identical across -j1/-j8 and across
 * live record/replay runs; non-timing diagnostics are excluded at
 * registration (see stats::Group::addCounter). Enabling it never changes simulated cycles
 * (asserted in tests/test_obs.cc).
 */

#ifndef TCFILL_OBS_TIMELINE_HH
#define TCFILL_OBS_TIMELINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/kmeans.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tcfill::obs
{

class JsonWriter;

/** One completed timeline interval. */
struct TimelineInterval
{
    InstSeqNum startInst = 0;   ///< retired count at interval start
    InstSeqNum insts = 0;       ///< instructions retired in interval
    Cycle startCycle = 0;       ///< cycle count at interval start
    Cycle cycles = 0;           ///< cycles the interval spanned
    /** BBV phase/cluster ID (first-appearance order); -1 untagged. */
    int phase = -1;
    /**
     * Fill-policy pass mask active at the interval boundary; -1 when
     * no mask probe is attached (static-policy and legacy runs, whose
     * serialized bytes must not change).
     */
    int passMask = -1;
    /** Per-counter increments, ordered like TimelineData::counters. */
    std::vector<std::uint64_t> deltas;
};

/** The full serialized-into-JSON timeline of one run. */
struct TimelineData
{
    /** Section schema tag ("tcfill-timeline-v1"). */
    static const char *schema();

    InstSeqNum interval = 0;    ///< configured interval length
    unsigned phases = 0;        ///< requested phase count (0 = off)
    /** Whether intervals carry a passMask column (probe attached). */
    bool maskTracked = false;
    /** Timing-counter column names, registration order. */
    std::vector<std::string> counters;
    std::vector<TimelineInterval> intervals;

    /**
     * Emit as one JSON object (the `timeline` section of a
     * tcfill-stats-v1 result). Deterministic bytes: fixed key order,
     * integer deltas, per-interval ipc derived from the integers.
     */
    void toJson(JsonWriter &w) const;
};

/**
 * The collector the RetireUnit feeds (one call per committed
 * instruction, via RetireUnit::setTimeline). Like the PipeTracer
 * hooks it is purely observational and runtime-null-gated at the
 * commit site.
 */
class Timeline
{
  public:
    /**
     * @p stats is the processor's master registry — counter columns
     * are captured at construction, so build the Timeline after all
     * stages registered (Processor::wireStages does).
     * @p interval is the cut length in retired instructions (> 0);
     * @p phases requests BBV phase tagging with that cluster count
     * (0 disables the per-interval block tracking entirely).
     */
    Timeline(const stats::Group &stats, InstSeqNum interval,
             unsigned phases);

    /**
     * Account one committed instruction. @p pc is its PC,
     * @p ends_block is Instruction::endsBlock() (only consulted when
     * phase tagging is on) and @p now is the commit cycle. Inline:
     * this is the per-commit hot path.
     */
    void
    onRetire(Addr pc, bool ends_block, Cycle now)
    {
        if (phases_ > 0)
            blocks_.note(pc, ends_block);
        ++insts_;
        if (insts_ - data_cut_inst_ >= data_->interval)
            cut(now);
    }

    /**
     * Attach a fill-policy mask probe: each closed interval then
     * records the mask active at its boundary (read through the
     * pointer, which must outlive the Timeline). Null detaches.
     * Observational only — wired by the Processor exactly when the
     * run uses a non-static policy, so legacy timeline bytes never
     * change.
     */
    void
    setMaskProbe(const std::uint8_t *mask)
    {
        mask_probe_ = mask;
        data_->maskTracked = mask != nullptr;
    }

    /**
     * Close the trailing partial interval (if any) against the run's
     * final cycle count, run phase clustering, and hand the finished
     * series over (the Timeline itself is done after this).
     */
    std::shared_ptr<const TimelineData> finish(Cycle end_cycle);

  private:
    void cut(Cycle now);
    void closeInterval(Cycle boundary_cycle);
    void assignPhases();

    const stats::Group &stats_;
    unsigned phases_;

    std::shared_ptr<TimelineData> data_;

    InstSeqNum insts_ = 0;          ///< total retired so far
    InstSeqNum data_cut_inst_ = 0;  ///< retired count at last cut
    Cycle last_cut_cycle_ = 0;      ///< boundary cycle of last cut
    const std::uint8_t *mask_probe_ = nullptr;

    /** Counter snapshot at the last cut (timing counters, in order). */
    std::vector<std::uint64_t> prev_;
    std::vector<std::uint64_t> scratch_;

    // ---- per-interval BBV tracking (phases_ > 0 only) ---------------
    BbvCounter blocks_;
    /** One BBV per completed interval, parallel to data_->intervals. */
    std::vector<std::map<Addr, std::uint64_t>> interval_blocks_;
};

} // namespace tcfill::obs

#endif // TCFILL_OBS_TIMELINE_HH
