/**
 * @file
 * Fill-unit pass-selection policies. The paper evaluates its four
 * optimizations as a whole-run static configuration; this seam makes
 * the choice a per-segment decision instead. FillUnit asks its
 * FillPolicy for the active PassMask at every segment finalize;
 * policies in turn observe the retire stream (PCs for an online BBV
 * phase tracker, cycles for window IPC, bypass-delay flags) and may
 * change the mask at decision-window boundaries.
 *
 * StaticPolicy is the compatibility anchor: it never changes the
 * mask and requests no retire signals, so the simulated machine is
 * bit-identical to the pre-policy boolean dispatch (golden fixtures
 * pin this). The adaptive policies are deterministic functions of the
 * committed instruction stream and the cycle numbers, so runs remain
 * reproducible across schedulers, thread counts and record/replay.
 */

#ifndef TCFILL_FILL_POLICY_HH
#define TCFILL_FILL_POLICY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/kmeans.hh"
#include "common/types.hh"
#include "fill/passes.hh"

namespace tcfill
{

/** Which pass-selection policy drives the fill pipeline. */
enum class FillPolicyKind : std::uint8_t
{
    Static = 0,     ///< fixed mask from FillOptimizations (default)
    Phase,          ///< per-BBV-phase explore-then-exploit
    Feedback,       ///< IPC/bypass feedback with hysteresis
    Oracle,         ///< replay an offline per-phase best map
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
     * FeedbackPolicy: minimum relative IPC gain a trial window must
     * show over the stable baseline to be adopted.
     */
    double hysteresis = 0.02;

    /**
     * OraclePolicy map: "*=MASK" for a uniform mask, or
     * "0=MASK,1=MASK,...[,*=MASK]" keyed by online phase id. Mask
     * tokens as in parsePassMask ("all", "none", "moves+placement",
     * a decimal value, ...).
     */
    std::string oracleMap;

    /**
     * Why these parameters cannot build a policy ("" when they can),
     * naming the offending field: a zero decision window on an
     * adaptive kind, or an oracle map parseOracleMap() refuses.
     * configFromJson() rejects it; makeFillPolicy() fatals on it.
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
    /** The mask the policy most recently chose for this phase. */
    unsigned mask = 0;
    std::uint64_t windows = 0;
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
};

/**
 * Deterministic decision record a policy leaves behind; joins
 * SimResult (and thus --stats-json / --compare-timing) for
 * non-static runs.
 */
struct PolicySummary
{
    std::string kind = "static";
    unsigned finalMask = 0;
    std::uint64_t windows = 0;
    std::uint64_t switches = 0;
    std::uint64_t phasesSeen = 0;
    // Filled in by FillUnit from the pass pipeline counters.
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
        : max_phases_(max_phases ? max_phases : 1),
          thresh2_(new_phase_dist)
    {}

    /** Feed one committed instruction. */
    void
    note(Addr pc, bool ends_block)
    {
        if (!in_block_) {
            block_start_ = pc;
            in_block_ = true;
        }
        ++block_len_;
        if (ends_block) {
            blocks_[block_start_] += block_len_;
            block_len_ = 0;
            in_block_ = false;
        }
    }

    /** Close the current window of @p insts instructions: label it. */
    int closeWindow(std::uint64_t insts);

    std::size_t phases() const { return centroids_.size(); }

  private:
    unsigned max_phases_;
    double thresh2_;
    Addr block_start_ = 0;
    bool in_block_ = false;
    std::uint64_t block_len_ = 0;
    std::map<Addr, std::uint64_t> blocks_;
    std::vector<BbvPoint> centroids_;
};

/**
 * The pass-selection seam. FillUnit reads mask() at every segment
 * finalize; policies that adapt additionally receive every commit
 * via onRetire (gated by wantsRetireSignals() so the static hot path
 * stays one branch).
 */
class FillPolicy
{
  public:
    FillPolicy(const char *kind, PassMask initial, bool wants_signals)
        : mask_(initial), kind_(kind), wants_signals_(wants_signals)
    {}

    virtual ~FillPolicy() = default;

    const char *kind() const { return kind_; }

    /** The mask the fill unit applies to the next finalized segment. */
    PassMask mask() const { return mask_; }

    /** Stable address of the mask, for the Timeline interval probe. */
    const std::uint8_t *maskPtr() const { return &mask_; }

    /** Whether the fill unit must feed commit signals to onRetire. */
    bool wantsRetireSignals() const { return wants_signals_; }

    /**
     * One committed instruction: its PC, whether it ends a basic
     * block (control or serializing), the retire cycle, and whether
     * its result came through a delayed bypass (fig7 signal).
     */
    virtual void
    onRetire(Addr pc, bool ends_block, Cycle now, bool bypass_delayed)
    {
        (void)pc;
        (void)ends_block;
        (void)now;
        (void)bypass_delayed;
    }

    /** Fill @p out with this policy's decision record. */
    virtual void
    summarize(PolicySummary &out) const
    {
        out.kind = kind_;
        out.finalMask = mask_;
        out.windows = windows_;
        out.switches = switches_;
    }

    std::uint64_t switches() const { return switches_; }
    std::uint64_t windows() const { return windows_; }

  protected:
    /** Change the active mask, counting actual changes. */
    void
    setMask(PassMask m)
    {
        if (m != mask_) {
            mask_ = m;
            ++switches_;
        }
    }

    PassMask mask_;
    std::uint64_t windows_ = 0;
    std::uint64_t switches_ = 0;

  private:
    const char *kind_;
    bool wants_signals_;
};

/** Fixed mask for the whole run — the pre-policy behavior. */
class StaticPolicy final : public FillPolicy
{
  public:
    explicit StaticPolicy(PassMask mask)
        : FillPolicy("static", mask, false)
    {}
};

/**
 * Shared windowing for the adaptive policies: accumulates commit
 * signals, closes a decision window every windowInsts retired
 * instructions, computes the window's IPC and bypass-delay fraction
 * (and phase label when tracking), and hands the measurement to the
 * subclass. Window cycle spans use the same now+1 boundary convention
 * as the Timeline, so spans tile the run exactly.
 */
class WindowedFillPolicy : public FillPolicy
{
  public:
    WindowedFillPolicy(const char *kind, PassMask initial,
                       const FillPolicyParams &params, bool track_phases);

    void onRetire(Addr pc, bool ends_block, Cycle now,
                  bool bypass_delayed) final;

    void summarize(PolicySummary &out) const override;

    /**
     * One closed decision window: @p phase is the online phase label
     * (-1 when phase tracking is off), @p ipc the window's retired
     * IPC, @p bypass_frac the fraction of commits flagged
     * bypass-delayed. Public so unit tests can drive the decision
     * machinery directly without a simulation.
     */
    virtual void onWindow(int phase, double ipc, double bypass_frac) = 0;

  protected:
    const FillPolicyParams params_;

  private:
    std::unique_ptr<OnlinePhaseTracker> tracker_;
    InstSeqNum window_insts_ = 0;
    std::uint64_t window_bypass_ = 0;
    Cycle window_start_cycle_ = 0;

    struct PhaseAgg
    {
        std::uint64_t windows = 0;
        std::uint64_t insts = 0;
        std::uint64_t cycles = 0;
        unsigned mask = 0;
    };
    std::vector<PhaseAgg> phase_agg_;    // index = phase id (or 0 for -1)
    bool untracked_seen_ = false;
};

/**
 * Per-phase explore-then-exploit: the first time a phase recurs, try
 * each candidate mask (derived from the configured static mask) for
 * one window, then lock in the best-IPC candidate for that phase.
 * Assumes phase locality (the next window is predicted to stay in
 * the current phase), which is also what makes it deterministic.
 */
class PhasePolicy final : public WindowedFillPolicy
{
  public:
    PhasePolicy(PassMask initial, const FillPolicyParams &params);

    void onWindow(int phase, double ipc, double bypass_frac) override;

    const std::vector<PassMask> &candidates() const { return candidates_; }

    void summarize(PolicySummary &out) const override;

  private:
    struct PhaseState
    {
        unsigned next = 0;
        double best_ipc = -1.0;
        PassMask best = 0;
        bool exploring = true;
    };

    PhaseState &stateFor(int phase);

    std::vector<PassMask> candidates_;
    std::vector<PhaseState> states_;
};

/**
 * Signal-driven adaptation without phase knowledge: keep an EWMA IPC
 * baseline over stable windows, periodically run a one-window trial
 * of an alternative mask, and adopt it only when the trial beats the
 * baseline by the hysteresis margin. A high bypass-delay fraction
 * biases the next trial toward toggling the placement pass (cluster
 * steering is what bypass delays indict).
 */
class FeedbackPolicy final : public WindowedFillPolicy
{
  public:
    static constexpr unsigned kTrialEvery = 4;
    static constexpr double kBypassHigh = 0.10;
    static constexpr double kEwmaAlpha = 0.25;

    FeedbackPolicy(PassMask initial, const FillPolicyParams &params);

    void onWindow(int phase, double ipc, double bypass_frac) override;

    bool inTrial() const { return in_trial_; }
    double baselineIpc() const { return baseline_ipc_; }

  private:
    PassMask pickTrial(double bypass_frac);

    std::vector<PassMask> candidates_;
    double baseline_ipc_ = -1.0;
    unsigned since_trial_ = 0;
    bool in_trial_ = false;
    PassMask stable_mask_;
    unsigned rotate_ = 0;
};

/**
 * Replays an offline per-phase mask map (FillPolicyParams::oracleMap)
 * keyed by the online tracker's phase ids. With a uniform map
 * ("*=MASK") the mask never changes, so timing is identical to the
 * equivalent static configuration — which both validates the seam
 * and, via the per-phase window accounting in the summary, provides
 * the per-phase IPC data the composed best map is built from.
 */
class OraclePolicy final : public WindowedFillPolicy
{
  public:
    OraclePolicy(PassMask initial, const FillPolicyParams &params);

    void onWindow(int phase, double ipc, double bypass_frac) override;

    PassMask maskFor(int phase) const;

  private:
    OracleMap map_;
    PassMask default_mask_;
};

/**
 * Build the policy configured by @p params for a fill unit whose
 * static configuration is @p opts. Fatals on invalid parameters.
 */
std::unique_ptr<FillPolicy> makeFillPolicy(const FillPolicyParams &params,
                                           const FillOptimizations &opts);

/**
 * The candidate mask set the adaptive policies explore, derived from
 * the configured static mask M: {M, M without placement,
 * placement-only, none}, deduplicated preserving order.
 */
std::vector<PassMask> policyCandidateMasks(PassMask initial);

/** One-line-per-policy help text for --list-policies. */
std::string listFillPolicies();

/** Parse a --fill-policy token; fatals on unknown names. */
FillPolicyKind parseFillPolicyKind(const std::string &token);

/** The token parseFillPolicyKind accepts for @p kind. */
const char *fillPolicyKindName(FillPolicyKind kind);

} // namespace tcfill

#endif // TCFILL_FILL_POLICY_HH
