/**
 * @file
 * Aggregate results of one timing-simulation run; everything the
 * paper's tables and figures report.
 */

#ifndef TCFILL_SIM_RESULT_HH
#define TCFILL_SIM_RESULT_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fill/policy.hh"
#include "obs/timeline.hh"

namespace tcfill
{

namespace obs { class JsonWriter; }

/** Results of a Processor::run(). */
struct SimResult
{
    std::string config;
    std::string workload;

    /**
     * Committed-stream provenance: "live" (in-process Executor),
     * "record" (live run teeing a trace file), "replay" (trace-file
     * ReplayExecutor) or "sample" (BBV-selected interval). Replayed
     * and live documents are comparable modulo this field — see
     * tools/check_stats_json.py --compare-replay.
     */
    std::string mode = "live";

    /**
     * The effective retire limit this run was configured with
     * (SimConfig::maxInsts; 0 = run to halt). Recorded so documents
     * produced at different caps are never silently compared.
     */
    InstSeqNum maxInsts = 0;

    InstSeqNum retired = 0;
    Cycle cycles = 0;

    /**
     * Host wall-clock seconds spent inside Processor::run() for this
     * result. Purely observational (simulated state never depends on
     * it); a cached SimRunner hit reports the original run's time.
     */
    double hostSeconds = 0.0;

    /**
     * Result provenance: "computed" (freshly simulated), "memory"
     * (served from a SimRunner in-process result cache — including
     * attaching to an in-flight duplicate) or "store" (read back from
     * a persistent service result store, src/service/store.hh). For
     * the non-computed provenances hostSeconds / simInstsPerSec
     * describe the *original* run, not a new measurement. Excluded
     * from the determinism equality checks in tests/test_runner.cc
     * and from --compare-replay in tools/check_stats_json.py.
     */
    std::string cacheHit = "computed";

    /**
     * Content digest of the simulation's input source: FNV-1a 64 (hex)
     * of "workload:<name>@<scale>" for live/sample runs, of
     * "trace:<crc>:<size>" (the tracefile content identity) for
     * record/replay runs. Together with the exhaustive config key this
     * is the service store key's identity half; recorded per result so
     * store-served documents carry their own provenance.
     */
    std::string sourceDigest;

    /**
     * Sampled-run mechanics accounting (mode == "sample" only; all
     * zero otherwise). Describes how the estimate was produced —
     * checkpoint journal size, restore traffic, residual functional
     * fast-forwarding and worker-pool width — not what it estimates,
     * so it lives in the host section of the JSON document (the pool
     * width is a host choice and must not break the byte-identical
     * determinism contract of the body).
     */
    struct SampleHost
    {
        std::uint64_t checkpoints = 0;      ///< checkpoints captured
        std::uint64_t checkpointPages = 0;  ///< pages journaled
        std::uint64_t restores = 0;         ///< checkpoint restores
        std::uint64_t restoredPages = 0;    ///< pages applied on restore
        std::uint64_t ffInsts = 0;          ///< residual fast-forward insts
        std::uint64_t simpoints = 0;        ///< measurement tasks
        std::uint64_t jobs = 0;             ///< worker threads used
    } sample;

    /**
     * Interval telemetry series (cfg.statsInterval != 0 only; null
     * otherwise). Deterministic simulation data — serialized in the
     * document body (not the host section) and byte-identical across
     * -j1/-j8 and record/replay. Shared (immutable) so
     * SimRunner result-cache copies stay cheap.
     */
    std::shared_ptr<const obs::TimelineData> timeline;

    /**
     * Fill-policy decision record (--fill-policy oracle runs only;
     * null otherwise, so static documents do not change).
     * Deterministic simulation data — policy decisions are a function
     * of the committed stream and cycle numbers, so this section is
     * timing-affecting and byte-identical across -j1/-j8 and
     * record/replay (tests/test_policy.cc pins this). Shared
     * (immutable) for cheap result-cache copies.
     */
    std::shared_ptr<const PolicySummary> policy;

    /**
     * Host self-profiler rows (--stats-host with profiling only;
     * empty otherwise). Wall-clock noise like hostSeconds — emitted
     * under host.profile, never in the deterministic body.
     */
    struct HostProfileRow
    {
        std::string name;
        double seconds = 0.0;
        std::uint64_t calls = 0;
    };
    std::vector<HostProfileRow> hostProfile;

    /** Simulator throughput: simulated instructions per host second. */
    double
    simInstsPerSec() const
    {
        return hostSeconds <= 0.0
            ? 0.0
            : static_cast<double>(retired) / hostSeconds;
    }

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(retired) /
                                 static_cast<double>(cycles);
    }

    // ---- front end ----------------------------------------------------
    std::uint64_t tcHits = 0;
    std::uint64_t tcMisses = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t inactiveRescues = 0;      ///< mispredicts hidden by
                                            ///< inactive issue
    /** Fetch cycles lost from mispredict detection to resolution. */
    std::uint64_t mispredictStallCycles = 0;
    std::uint64_t segmentsBuilt = 0;
    double avgSegmentLength = 0.0;
    double bpredAccuracy = 0.0;

    double
    tcHitRate() const
    {
        auto total = tcHits + tcMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(tcHits) /
                                static_cast<double>(total);
    }

    // ---- dynamic optimization counts (Table 2 / figures 3-5) ---------
    std::uint64_t dynMoves = 0;         ///< retired move-marked insts
    std::uint64_t dynReassoc = 0;       ///< retired reassociated insts
    std::uint64_t dynScaled = 0;        ///< retired scaled insts
    std::uint64_t dynMoveIdioms = 0;    ///< architectural move idioms
    std::uint64_t dynElided = 0;        ///< dead writes elided (ext.)

    double fracMoves() const { return frac(dynMoves); }
    double fracReassoc() const { return frac(dynReassoc); }
    double fracScaled() const { return frac(dynScaled); }
    double
    fracTransformed() const
    {
        return frac(dynMoves + dynReassoc + dynScaled);
    }
    double fracMoveIdioms() const { return frac(dynMoveIdioms); }
    double fracElided() const { return frac(dynElided); }

    // ---- bypass network (figure 7) --------------------------------------
    std::uint64_t bypassDelayed = 0;    ///< retired insts whose last
                                        ///< operand crossed clusters
    double
    fracBypassDelayed() const
    {
        return frac(bypassDelayed);
    }

    void dump(std::ostream &os) const;

    /**
     * Emit this result as one JSON object (the caller owns the
     * surrounding document structure — see sim/stats_io.hh).
     * @param include_host also emit the host-timing section
     *        (hostSeconds, simInstsPerSec), which is wall-clock noise
     *        and breaks byte-identical reruns; deterministic fields
     *        only when false.
     */
    void toJson(obs::JsonWriter &w, bool include_host = true) const;

  private:
    double
    frac(std::uint64_t n) const
    {
        return retired == 0 ? 0.0
                            : static_cast<double>(n) /
                                  static_cast<double>(retired);
    }
};

} // namespace tcfill

#endif // TCFILL_SIM_RESULT_HH
