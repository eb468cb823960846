/**
 * @file
 * Fill-unit pass selection. The paper applies its four optimizations
 * as one whole-run setting, and so does the default static policy.
 * The oracle policy replays an offline per-phase mask map instead: an
 * online BBV phase tracker labels each decision window of the retire
 * stream, and the label's map entry becomes the pass mask for the
 * next window. A map composed from uniform-mask runs bounds what
 * per-phase pass selection could gain (DESIGN.md §16).
 *
 * Both are deterministic functions of the committed instruction
 * stream and the retire cycles, so runs stay reproducible across
 * thread counts and record/replay. A static run is
 * bit-identical to the pre-policy boolean dispatch (golden fixtures
 * pin this).
 */

#ifndef TCFILL_FILL_POLICY_HH
#define TCFILL_FILL_POLICY_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/kmeans.hh"
#include "common/types.hh"
#include "fill/passes.hh"

namespace tcfill
{

/**
 * Which pass-selection policy drives the fill pipeline. configCacheKey()
 * writes the integer, so the values are fixed (1 and 2 named policies
 * that no longer exist).
 */
enum class FillPolicyKind : std::uint8_t
{
    Static = 0,     ///< fixed mask from FillOptimizations (default)
    Oracle = 3,     ///< replay an offline per-phase best map
};

/** Policy selection and tuning knobs (part of SimConfig). */
struct FillPolicyParams
{
    FillPolicyKind kind = FillPolicyKind::Static;

    /** Online phase tracker: maximum distinct phases to allocate. */
    unsigned maxPhases = 8;

    /** Decision window length in retired instructions. */
    InstSeqNum windowInsts = 10'000;

    /**
     * Squared projected-BBV distance above which a window opens a new
     * phase (if the cap allows) rather than joining the nearest one.
     */
    double newPhaseDist = 0.05;

    /**
     * Oracle map: "*=MASK" for a uniform mask, or
     * "0=MASK,1=MASK,...[,*=MASK]" keyed by online phase id. Mask
     * tokens as in parsePassMask ("all", "none", "moves+placement",
     * a decimal value, ...).
     */
    std::string oracleMap;

    /**
     * Why these parameters cannot build a policy ("" when they can),
     * naming the offending field: a zero decision window or phase cap
     * on the oracle, or an oracle map parseOracleMap() refuses.
     * configFromJson() rejects it; the FillPolicy constructor fatals
     * on it.
     */
    std::string check() const;
};

/** A parsed FillPolicyParams::oracleMap. */
struct OracleMap
{
    /** Phase id -> mask entries, in map order (first match wins). */
    std::vector<std::pair<int, PassMask>> phases;
    /** The "*" entry's mask, if the map has one. */
    std::optional<PassMask> fallback;
};

/**
 * Parse an oracle map spec (see FillPolicyParams::oracleMap). Returns
 * false with a reason in @p err on an empty spec, an entry that is not
 * KEY=MASK, a key that is neither '*' nor a phase id in [0, INT_MAX],
 * or a bad mask token.
 */
bool parseOracleMap(const std::string &spec, OracleMap &out,
                    std::string &err);

/** Summary of one phase's decisions for the SimResult policy section. */
struct PolicyPhaseStat
{
    int phase = -1;
    /** The mask the policy chose for this phase. */
    unsigned mask = 0;
    std::uint64_t windows = 0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
};

/**
 * Deterministic decision record a policy leaves behind; joins
 * SimResult (and thus --stats-json / --compare-replay) for oracle
 * runs.
 */
struct PolicySummary
{
    std::string kind = "static";
    unsigned finalMask = 0;
    std::uint64_t windows = 0;
    std::uint64_t switches = 0;
    std::uint64_t phasesSeen = 0;
    // Filled in by FillUnit from its fill.* transform counters.
    std::uint64_t movesMarked = 0;
    std::uint64_t reassociations = 0;
    std::uint64_t scaledAdds = 0;
    std::uint64_t deadElided = 0;
    std::vector<PolicyPhaseStat> phases;
};

/**
 * Online BBV phase tracker: accumulates per-block instruction counts
 * over a decision window at retire, and labels each closed window
 * with a phase id by nearest frozen centroid (new centroid if the
 * distance exceeds the threshold and the cap allows). Input is the
 * architectural committed stream only, so labels are identical across
 * timing configurations of the same workload — which is what makes
 * per-phase best maps composable from uniform-mask runs.
 */
class OnlinePhaseTracker
{
  public:
    OnlinePhaseTracker(unsigned max_phases, double new_phase_dist)
        : max_phases_(max_phases), thresh2_(new_phase_dist)
    {}

    /** Feed one committed instruction. */
    void note(Addr pc, bool ends_block) { blocks_.note(pc, ends_block); }

    /** Close the current window of @p insts instructions: label it. */
    int closeWindow(std::uint64_t insts);

    std::size_t phases() const { return centroids_.size(); }

  private:
    unsigned max_phases_;
    double thresh2_;
    BbvCounter blocks_;
    std::vector<BbvPoint> centroids_;
};

/**
 * The fill unit's pass selection: a fixed mask, or an oracle replay.
 * FillUnit reads mask() at every segment finalize, and feeds every
 * commit to onRetire() only when observesRetire(), so a static run
 * pays one branch per commit.
 *
 * The oracle closes a decision window every windowInsts commits. The
 * tracker labels the window, which owns the cycles [start, now+1) so
 * that spans tile the run exactly, the window's instructions and
 * cycles are summed under its phase, and the label's map entry (or
 * '*') becomes the mask for the next window. The first window runs
 * before any label exists and uses the phase-0 entry, which is
 * configuration, not a switch.
 */
class FillPolicy
{
  public:
    /**
     * The policy @p params configures for a fill unit whose static
     * pass set is @p initial. Fatals on parameters check() refuses.
     */
    FillPolicy(const FillPolicyParams &params, PassMask initial);

    /** "static" or "oracle". */
    const char *kind() const;

    /** The mask the fill unit applies to the next finalized segment. */
    PassMask mask() const { return mask_; }

    /** Stable address of the mask, for the Timeline interval probe. */
    const std::uint8_t *maskPtr() const { return &mask_; }

    /** Whether the fill unit must feed commits to onRetire(). */
    bool observesRetire() const { return kind_ == FillPolicyKind::Oracle; }

    /**
     * One committed instruction: its PC, whether it ends a basic
     * block, and the retire cycle. Inline: the oracle runs this once
     * per commit.
     */
    void
    onRetire(Addr pc, bool ends_block, Cycle now)
    {
        tracker_.note(pc, ends_block);
        if (++window_insts_ >= window_len_)
            closeWindow(now);
    }

    /** The oracle's mask for @p phase: its entry, else '*', else the
     *  static mask. */
    PassMask maskFor(int phase) const;

    /** Fill @p out with this policy's decision record. */
    void summarize(PolicySummary &out) const;

    std::uint64_t switches() const { return switches_; }
    std::uint64_t windows() const { return windows_; }

  private:
    /** Label the window that ends at cycle @p now; pick the next mask. */
    void closeWindow(Cycle now);

    struct PhaseAgg
    {
        std::uint64_t windows = 0;
        std::uint64_t insts = 0;
        std::uint64_t cycles = 0;
    };

    FillPolicyKind kind_;
    PassMask mask_;
    InstSeqNum window_len_;
    OracleMap map_;
    /** The '*' entry, or the static mask when the map has none. */
    PassMask default_mask_;
    OnlinePhaseTracker tracker_;

    InstSeqNum window_insts_ = 0;
    Cycle window_start_cycle_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t switches_ = 0;
    std::vector<PhaseAgg> phase_agg_;    // index = phase id
};

/** One-line-per-policy help text for --list-policies. */
std::string listFillPolicies();

/** Parse a --fill-policy token; fatals on unknown names. */
FillPolicyKind parseFillPolicyKind(const std::string &token);

/** The token parseFillPolicyKind accepts for @p kind. */
const char *fillPolicyKindName(FillPolicyKind kind);

} // namespace tcfill

#endif // TCFILL_FILL_POLICY_HH
