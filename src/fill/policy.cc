#include "fill/policy.hh"

#include <algorithm>
#include <charconv>
#include <limits>

#include "common/logging.hh"

namespace tcfill
{

// --------------------------------------------------------------------
// OnlinePhaseTracker
// --------------------------------------------------------------------

int
OnlinePhaseTracker::closeWindow(std::uint64_t insts)
{
    // A block straddling the boundary contributes its retired-so-far
    // prefix to this window (same accounting the Timeline uses).
    if (in_block_ && block_len_ > 0) {
        blocks_[block_start_] += block_len_;
        block_len_ = 0;
        // The block continues into the next window from its start PC.
    }
    const BbvPoint p = projectBbv(blocks_, insts);
    blocks_.clear();

    int best = -1;
    double best_d2 = 0.0;
    for (std::size_t i = 0; i < centroids_.size(); ++i) {
        const double d2 = bbvDist2(p, centroids_[i]);
        if (best < 0 || d2 < best_d2) {
            best = static_cast<int>(i);
            best_d2 = d2;
        }
    }
    if (best < 0 || (best_d2 > thresh2_ && centroids_.size() < max_phases_)) {
        centroids_.push_back(p);
        return static_cast<int>(centroids_.size()) - 1;
    }
    return best;
}

// --------------------------------------------------------------------
// WindowedFillPolicy
// --------------------------------------------------------------------

WindowedFillPolicy::WindowedFillPolicy(const char *kind, PassMask initial,
                                       const FillPolicyParams &params,
                                       bool track_phases)
    : FillPolicy(kind, initial, true), params_(params)
{
    if (track_phases)
        tracker_ = std::make_unique<OnlinePhaseTracker>(params_.maxPhases,
                                                        params_.newPhaseDist);
}

void
WindowedFillPolicy::onRetire(Addr pc, bool ends_block, Cycle now,
                             bool bypass_delayed)
{
    if (tracker_)
        tracker_->note(pc, ends_block);
    if (bypass_delayed)
        ++window_bypass_;
    if (++window_insts_ < params_.windowInsts)
        return;

    // Same boundary convention as the Timeline: the window owns
    // [start, now+1), so spans tile the run exactly.
    const Cycle boundary = now + 1;
    const Cycle span = boundary > window_start_cycle_
                           ? boundary - window_start_cycle_
                           : 1;
    const double ipc =
        static_cast<double>(window_insts_) / static_cast<double>(span);
    const double bypass_frac = static_cast<double>(window_bypass_) /
                               static_cast<double>(window_insts_);
    const int phase = tracker_ ? tracker_->closeWindow(window_insts_) : -1;

    ++windows_;
    const std::size_t slot = phase < 0 ? 0 : static_cast<std::size_t>(phase);
    if (phase < 0)
        untracked_seen_ = true;
    if (slot >= phase_agg_.size())
        phase_agg_.resize(slot + 1);
    PhaseAgg &agg = phase_agg_[slot];
    ++agg.windows;
    agg.insts += window_insts_;
    agg.cycles += span;

    onWindow(phase, ipc, bypass_frac);

    // Record the decision now in force for this phase (the mask the
    // policy will apply while the phase persists).
    agg.mask = mask();

    window_insts_ = 0;
    window_bypass_ = 0;
    window_start_cycle_ = boundary;
}

void
WindowedFillPolicy::summarize(PolicySummary &out) const
{
    FillPolicy::summarize(out);
    out.phasesSeen = tracker_ ? tracker_->phases() : 0;
    for (std::size_t i = 0; i < phase_agg_.size(); ++i) {
        const PhaseAgg &agg = phase_agg_[i];
        if (agg.windows == 0)
            continue;
        PolicyPhaseStat st;
        st.phase = untracked_seen_ ? -1 : static_cast<int>(i);
        st.mask = agg.mask;
        st.windows = agg.windows;
        st.insts = agg.insts;
        st.cycles = agg.cycles;
        out.phases.push_back(st);
    }
}

// --------------------------------------------------------------------
// PhasePolicy
// --------------------------------------------------------------------

std::vector<PassMask>
policyCandidateMasks(PassMask initial)
{
    std::vector<PassMask> out;
    auto add = [&out](PassMask m) {
        if (std::find(out.begin(), out.end(), m) == out.end())
            out.push_back(m);
    };
    add(initial);
    add(initial & static_cast<PassMask>(~kPassPlacement));
    add(initial & kPassPlacement);
    add(kPassMaskNone);
    return out;
}

PhasePolicy::PhasePolicy(PassMask initial, const FillPolicyParams &params)
    : WindowedFillPolicy("phase", initial, params, true),
      candidates_(policyCandidateMasks(initial))
{}

PhasePolicy::PhaseState &
PhasePolicy::stateFor(int phase)
{
    const std::size_t idx = static_cast<std::size_t>(phase);
    if (idx >= states_.size())
        states_.resize(idx + 1);
    return states_[idx];
}

void
PhasePolicy::onWindow(int phase, double ipc, double bypass_frac)
{
    (void)bypass_frac;
    PhaseState &st = stateFor(phase);
    if (st.exploring) {
        // Credit the probe only if this window actually ran the
        // candidate under test — the mask in force was chosen for
        // the *previous* window's phase, so a phase transition
        // window measures the wrong mask and is discarded.
        if (mask() == candidates_[st.next]) {
            if (ipc > st.best_ipc) {
                st.best_ipc = ipc;
                st.best = candidates_[st.next];
            }
            if (++st.next >= candidates_.size())
                st.exploring = false;
        }
    }
    setMask(st.exploring ? candidates_[st.next] : st.best);
}

void
PhasePolicy::summarize(PolicySummary &out) const
{
    WindowedFillPolicy::summarize(out);
    // Report the settled (or in-flight) choice per phase.
    for (PolicyPhaseStat &st : out.phases) {
        if (st.phase < 0 ||
            static_cast<std::size_t>(st.phase) >= states_.size())
            continue;
        const PhaseState &ps = states_[static_cast<std::size_t>(st.phase)];
        if (!ps.exploring)
            st.mask = ps.best;
    }
}

// --------------------------------------------------------------------
// FeedbackPolicy
// --------------------------------------------------------------------

FeedbackPolicy::FeedbackPolicy(PassMask initial,
                               const FillPolicyParams &params)
    : WindowedFillPolicy("feedback", initial, params, false),
      candidates_(policyCandidateMasks(initial)), stable_mask_(initial)
{}

PassMask
FeedbackPolicy::pickTrial(double bypass_frac)
{
    // Cluster-steering indictment: lots of delayed bypasses while
    // placement is on -> try a window without it first.
    if (bypass_frac > kBypassHigh && (mask() & kPassPlacement))
        return mask() & static_cast<PassMask>(~kPassPlacement);
    // Otherwise rotate through the candidate set, skipping the mask
    // already in force.
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const PassMask m = candidates_[rotate_];
        rotate_ = (rotate_ + 1) % candidates_.size();
        if (m != mask())
            return m;
    }
    return mask();
}

void
FeedbackPolicy::onWindow(int phase, double ipc, double bypass_frac)
{
    (void)phase;
    if (in_trial_) {
        in_trial_ = false;
        since_trial_ = 0;
        if (baseline_ipc_ > 0.0 &&
            ipc > baseline_ipc_ * (1.0 + params_.hysteresis)) {
            stable_mask_ = mask();    // adopt the trial mask
            baseline_ipc_ = ipc;
        } else {
            setMask(stable_mask_);    // revert
        }
        return;
    }

    baseline_ipc_ = baseline_ipc_ < 0.0
                        ? ipc
                        : (1.0 - kEwmaAlpha) * baseline_ipc_ +
                              kEwmaAlpha * ipc;
    if (++since_trial_ < kTrialEvery)
        return;
    const PassMask trial = pickTrial(bypass_frac);
    if (trial != mask()) {
        stable_mask_ = mask();
        setMask(trial);
        in_trial_ = true;
    } else {
        since_trial_ = 0;
    }
}

// --------------------------------------------------------------------
// OraclePolicy
// --------------------------------------------------------------------

bool
parseOracleMap(const std::string &spec, OracleMap &out, std::string &err)
{
    out = OracleMap{};
    if (spec.empty()) {
        err = "oracle fill policy needs --policy-map (e.g. \"*=all\" or "
              "\"0=none,1=all\")";
        return false;
    }
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            err = "oracle map entry '" + entry + "' is not KEY=MASK";
            return false;
        }
        const std::string key = entry.substr(0, eq);
        PassMask m = kPassMaskNone;
        if (!parsePassMask(entry.substr(eq + 1), m, err))
            return false;
        if (key == "*") {
            out.fallback = m;
            continue;
        }
        if (key.empty() ||
            key.find_first_not_of("0123456789") != std::string::npos) {
            err = "oracle map key '" + key + "' is not a phase id or '*'";
            return false;
        }
        unsigned long long id = 0;
        if (std::from_chars(key.data(), key.data() + key.size(), id).ec !=
                std::errc() ||
            id > static_cast<unsigned long long>(
                     std::numeric_limits<int>::max())) {
            err = "oracle map key '" + key +
                "' is out of range (phase ids are 0.." +
                std::to_string(std::numeric_limits<int>::max()) + ")";
            return false;
        }
        out.phases.emplace_back(static_cast<int>(id), m);
    }
    return true;
}

std::string
FillPolicyParams::check() const
{
    if (kind != FillPolicyKind::Static && windowInsts == 0)
        return std::string("windowInsts must be positive for the '") +
            fillPolicyKindName(kind) + "' policy";
    if (kind == FillPolicyKind::Oracle) {
        OracleMap map;
        std::string err;
        if (!parseOracleMap(oracleMap, map, err))
            return "oracleMap: " + err;
    }
    return {};
}

OraclePolicy::OraclePolicy(PassMask initial, const FillPolicyParams &params)
    : WindowedFillPolicy("oracle", initial, params, true),
      default_mask_(initial)
{
    std::string err;
    fatal_if(!parseOracleMap(params.oracleMap, map_, err), "%s",
             err.c_str());
    if (map_.fallback)
        default_mask_ = *map_.fallback;
    // The initial mask is the map's prediction for phase 0 (the first
    // window necessarily runs before any label exists).
    setMask(maskFor(0));
    switches_ = 0;    // configuration, not a runtime switch
}

PassMask
OraclePolicy::maskFor(int phase) const
{
    for (const auto &[id, mask] : map_.phases)
        if (id == phase)
            return mask;
    return default_mask_;
}

void
OraclePolicy::onWindow(int phase, double ipc, double bypass_frac)
{
    (void)ipc;
    (void)bypass_frac;
    // Phase locality prediction: the next window is expected to stay
    // in the phase just labeled.
    setMask(maskFor(phase));
}

// --------------------------------------------------------------------
// Factory and CLI helpers
// --------------------------------------------------------------------

std::unique_ptr<FillPolicy>
makeFillPolicy(const FillPolicyParams &params, const FillOptimizations &opts)
{
    const std::string err = params.check();
    fatal_if(!err.empty(), "fill policy: %s", err.c_str());
    const PassMask initial = passMaskFromOpts(opts);
    switch (params.kind) {
      case FillPolicyKind::Static:
        return std::make_unique<StaticPolicy>(initial);
      case FillPolicyKind::Phase:
        return std::make_unique<PhasePolicy>(initial, params);
      case FillPolicyKind::Feedback:
        return std::make_unique<FeedbackPolicy>(initial, params);
      case FillPolicyKind::Oracle:
        return std::make_unique<OraclePolicy>(initial, params);
    }
    fatal("unknown fill policy kind %u", unsigned(params.kind));
}

std::string
listFillPolicies()
{
    return
        "  static    fixed pass set from --opts (default; bit-identical\n"
        "            to the pre-policy simulator)\n"
        "  phase     per-BBV-phase explore-then-exploit over candidate\n"
        "            pass sets (online phase tracker at retire)\n"
        "  feedback  window-IPC feedback with hysteresis; high bypass-\n"
        "            delay fractions bias trials against placement\n"
        "  oracle    replay a per-phase best map (--policy-map), e.g.\n"
        "            computed offline from uniform-mask runs\n";
}

FillPolicyKind
parseFillPolicyKind(const std::string &token)
{
    if (token == "static")
        return FillPolicyKind::Static;
    if (token == "phase")
        return FillPolicyKind::Phase;
    if (token == "feedback")
        return FillPolicyKind::Feedback;
    if (token == "oracle")
        return FillPolicyKind::Oracle;
    fatal("unknown fill policy '%s' (see --list-policies)", token.c_str());
}

const char *
fillPolicyKindName(FillPolicyKind kind)
{
    switch (kind) {
      case FillPolicyKind::Static:
        return "static";
      case FillPolicyKind::Phase:
        return "phase";
      case FillPolicyKind::Feedback:
        return "feedback";
      case FillPolicyKind::Oracle:
        return "oracle";
    }
    return "?";
}

} // namespace tcfill
