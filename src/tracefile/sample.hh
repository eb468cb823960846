/**
 * @file
 * SimPoint-style interval sampling: cluster the BBV intervals of a
 * workload (bbv.hh), time only one representative interval per
 * cluster, and combine the per-interval CPIs with cluster weights
 * into a whole-run IPC estimate — turning an O(run length) timing
 * simulation into O(k * (warmup + interval)).
 *
 * Measurement is exact per interval, not approximate: the machine is
 * deterministic, so within a single timing run capped at the end of
 * the measured interval, cycles(warmup+measure) - cycles(warmup) —
 * the latter read mid-run by the retire-cycle probe — is precisely
 * the cycles the measured instructions took, with warmed caches and
 * predictors. The only error left is the clustering approximation
 * itself (bounded empirically in EXPERIMENTS.md).
 *
 * runSampled reaches each measurement's start point by restoring an
 * architectural checkpoint dropped during the single functional
 * profiling pass (arch/checkpoint.hh) and runs the per-simpoint
 * measurements concurrently on a SimRunner pool; the estimate is
 * byte-identical at every job count and checkpoint stride — see
 * DESIGN.md §14.
 */

#ifndef TCFILL_TRACEFILE_SAMPLE_HH
#define TCFILL_TRACEFILE_SAMPLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/progress.hh"
#include "sim/config.hh"
#include "sim/result.hh"
#include "tracefile/bbv.hh"

namespace tcfill::obs
{
class HostProfiler;
class TraceEventWriter;
} // namespace tcfill::obs

namespace tcfill::tracefile
{

/** One selected representative interval. */
struct Simpoint
{
    /** Index into the BBV interval sequence. */
    std::size_t interval = 0;
    /** Fraction of all intervals in this point's cluster. */
    double weight = 0.0;
};

/**
 * Cluster @p intervals into (at most) @p k groups by BBV similarity
 * and return one representative per non-empty cluster, ordered by
 * interval index. Deterministic: k-means++ seeding and Lloyd
 * iterations run off a fixed-seed tcfill::Random, and block vectors
 * are random-projected with a hash of the block PC, so the same
 * intervals always select the same points on every platform.
 */
std::vector<Simpoint> selectSimpoints(
    const std::vector<BbvInterval> &intervals, unsigned k);

/** Parameters of a sampled run. */
struct SampleSpec
{
    /** Target cluster count (clamped to the interval count). */
    unsigned k = 4;
    /** Interval length in committed instructions. */
    InstSeqNum interval = 100'000;
    /** Instructions simulated (not measured) before each interval. */
    InstSeqNum warmup = 50'000;

    // None of the knobs below affect the estimate — only how fast it
    // is produced (asserted byte-identical by cli.sample_identity).

    /** Measurement worker threads (0 = SimRunner::defaultThreads()). */
    unsigned jobs = 0;
    /**
     * Capture a checkpoint every this-many interval boundaries (>= 1).
     * Wider strides journal fewer pages at the cost of a longer
     * residual fast-forward per measurement.
     */
    unsigned checkpointStride = 1;

    /**
     * Optional Chrome trace-event writer: runSampled appends its
     * profile/checkpoint spans plus per-simpoint restore /
     * fast-forward / measure spans on the host timebase
     * (obs::kTracePidHost; wall-clock us since the writer opened).
     * Purely observational — the estimate is byte-identical with or
     * without it. The caller owns the writer (and its close()).
     */
    obs::TraceEventWriter *events = nullptr;
    /**
     * Optional host self-profiler: runSampled attributes its wall
     * clock to the profile / checkpoint / restore / fastForward /
     * measure sections and copies the rows into
     * SimResult::hostProfile. Thread-safe (pool workers share it);
     * purely observational.
     */
    obs::HostProfiler *profiler = nullptr;
};

/**
 * Estimate the full-run timing of (@p workload, @p scale, @p cfg) by
 * BBV sampling: functional profile, simpoint selection, then one
 * warmed timing measurement per selected interval. The result has
 * mode "sample"; retired is the full functional instruction count
 * (honoring cfg.maxInsts) and cycles is the weighted whole-run
 * estimate, so ipc() is directly comparable to a full run's. The
 * detailed microarchitectural counters are left zero — a sampled run
 * estimates IPC, not the full counter set; SimResult::sample carries
 * the checkpoint/restore accounting and SimResult::hostSeconds the
 * end-to-end wall clock.
 *
 * @param progress optional SimRunner progress callback observing the
 *        per-simpoint measurement tasks (see SimRunner::setProgress).
 */
SimResult runSampled(const std::string &workload, unsigned scale,
                     const SimConfig &cfg, const SampleSpec &spec,
                     obs::ProgressFn progress = {});

} // namespace tcfill::tracefile

#endif // TCFILL_TRACEFILE_SAMPLE_HH
