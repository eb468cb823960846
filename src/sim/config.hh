/**
 * @file
 * Top-level simulator configuration, defaulting to the paper's §3
 * experimental model: 16-wide fetch with a 2K-entry 4-way trace
 * cache, 4KB supporting I-cache, 64KB L1D / 1MB L2, a three-PHT
 * multiple-branch predictor with an 8KB bias table, and a 16-unit
 * execution engine in four clusters with 32-entry reservation
 * stations, inactive issue and checkpoint repair.
 */

#ifndef TCFILL_SIM_CONFIG_HH
#define TCFILL_SIM_CONFIG_HH

#include <string>

#include "bpred/predictor.hh"
#include "fill/fill_unit.hh"
#include "mem/cache.hh"
#include "trace/tcache.hh"
#include "uarch/exec_core.hh"

namespace tcfill
{

/**
 * Full simulator configuration.
 *
 * NOTE: every behavior-affecting field (including those of the nested
 * params structs) must have a line in the knob table, visitKnobs() in
 * sim/config_io.hh: the store key and the wire are built from it, and
 * the SimRunner result cache treats configs with equal keys as
 * interchangeable.
 */
struct SimConfig
{
    std::string name = "baseline";

    FillUnitConfig fill{};
    TraceCache::Params tcache{};
    MemoryHierarchy::Params mem{};
    MultiBranchPredictor::Params bpred{};
    BiasTable::Params bias{};
    ExecCoreParams core{};

    /** Fetch from the trace cache (false: I-cache only, ablation). */
    bool useTraceCache = true;

    /** Issue blocks past the predicted exit inactively (paper §3). */
    bool inactiveIssue = true;

    unsigned fetchWidth = 16;
    unsigned fetchQueueLines = 4;
    unsigned retireWidth = 16;
    /** In-flight instruction cap (window size). */
    unsigned windowCap = 512;
    unsigned rasDepth = 32;

    /** Stop after this many retired instructions (0 = run to halt). */
    InstSeqNum maxInsts = 0;
    /** Hard cycle cap as a safety net (0 = none). */
    Cycle maxCycles = 0;

    /**
     * Timeline telemetry (obs/timeline.hh): snapshot the delta of
     * every timing-model counter each time this many instructions
     * retire (0 = off). Purely observational — never changes
     * simulated cycles — but keyed in configCacheKey() because it
     * changes the SimResult document (the timeline section).
     */
    InstSeqNum statsInterval = 0;
    /**
     * Tag timeline intervals with one of this many BBV phase
     * clusters (0 = no tagging; requires statsInterval != 0).
     */
    unsigned statsPhases = 0;

    /**
     * Why this machine cannot run ("" when it can): the first field
     * that some component's check() refuses, or a knob that would
     * make the pipeline panic or never finish. The message starts
     * with the field's configToJson() path ("config.core: ...").
     * configFromJson() rejects such a config and the Processor fatals
     * on it, so a hostile sweep point never reaches the model.
     */
    std::string check() const;

    /**
     * Convenience: the paper's baseline with a chosen optimization
     * set and fill latency.
     */
    static SimConfig
    withOpts(const FillOptimizations &opts, Cycle fill_latency = 5)
    {
        SimConfig cfg;
        cfg.fill.opts = opts;
        cfg.fill.latency = fill_latency;
        return cfg;
    }

    /**
     * Trace-cache storage in bits at full occupancy: entries x 16
     * instructions x bits per instruction. A line carries the
     * metadata bits of the optimizations fill.opts enables (paper
     * §4.6), so the bits follow from the opts.
     */
    std::size_t
    tcacheStorageBits() const
    {
        return tcache.entries * kSegmentMaxInsts *
            TraceSegment::bitsPerInst(fill.opts.markMoves,
                                      fill.opts.scaledAdds,
                                      fill.opts.placement);
    }
};

} // namespace tcfill

#endif // TCFILL_SIM_CONFIG_HH
