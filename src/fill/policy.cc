#include "fill/policy.hh"

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
    const BbvPoint p = projectBbv(blocks_.cut(), insts);

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
// Oracle map and parameters
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
    if (kind != FillPolicyKind::Oracle)
        return {};
    if (windowInsts == 0)
        return "windowInsts must be positive for the 'oracle' policy";
    if (maxPhases == 0)
        return "maxPhases must be positive for the 'oracle' policy";
    OracleMap map;
    std::string err;
    if (!parseOracleMap(oracleMap, map, err))
        return "oracleMap: " + err;
    return {};
}

// --------------------------------------------------------------------
// FillPolicy
// --------------------------------------------------------------------

FillPolicy::FillPolicy(const FillPolicyParams &params, PassMask initial)
    : kind_(params.kind), mask_(initial), window_len_(params.windowInsts),
      default_mask_(initial),
      tracker_(params.maxPhases, params.newPhaseDist)
{
    std::string err = params.check();
    fatal_if(!err.empty(), "fill policy: %s", err.c_str());
    if (kind_ != FillPolicyKind::Oracle)
        return;
    parseOracleMap(params.oracleMap, map_, err);    // check() passed it
    if (map_.fallback)
        default_mask_ = *map_.fallback;
    mask_ = maskFor(0);
}

const char *
FillPolicy::kind() const
{
    return fillPolicyKindName(kind_);
}

PassMask
FillPolicy::maskFor(int phase) const
{
    for (const auto &[id, mask] : map_.phases)
        if (id == phase)
            return mask;
    return default_mask_;
}

void
FillPolicy::closeWindow(Cycle now)
{
    const Cycle boundary = now + 1;
    const Cycle span = boundary > window_start_cycle_
                           ? boundary - window_start_cycle_
                           : 1;
    const int phase = tracker_.closeWindow(window_insts_);

    ++windows_;
    const auto slot = static_cast<std::size_t>(phase);
    if (slot >= phase_agg_.size())
        phase_agg_.resize(slot + 1);
    PhaseAgg &agg = phase_agg_[slot];
    ++agg.windows;
    agg.insts += window_insts_;
    agg.cycles += span;

    // Phase locality: the next window is predicted to stay in the
    // phase just labeled.
    const PassMask next = maskFor(phase);
    if (next != mask_) {
        mask_ = next;
        ++switches_;
    }

    window_insts_ = 0;
    window_start_cycle_ = boundary;
}

void
FillPolicy::summarize(PolicySummary &out) const
{
    out.kind = kind();
    out.finalMask = mask_;
    out.windows = windows_;
    out.switches = switches_;
    out.phasesSeen = tracker_.phases();
    // The tracker hands out phase ids densely, so every slot closed
    // at least one window.
    for (std::size_t i = 0; i < phase_agg_.size(); ++i) {
        PolicyPhaseStat st;
        st.phase = static_cast<int>(i);
        st.mask = maskFor(st.phase);
        st.windows = phase_agg_[i].windows;
        st.insts = phase_agg_[i].insts;
        st.cycles = phase_agg_[i].cycles;
        out.phases.push_back(st);
    }
}

// --------------------------------------------------------------------
// CLI helpers
// --------------------------------------------------------------------

std::string
listFillPolicies()
{
    return
        "  static    fixed pass set from --opts (default; bit-identical\n"
        "            to the pre-policy simulator)\n"
        "  oracle    replay a per-phase best map (--policy-map), e.g.\n"
        "            computed offline from uniform-mask runs\n";
}

FillPolicyKind
parseFillPolicyKind(const std::string &token)
{
    if (token == "static")
        return FillPolicyKind::Static;
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
      case FillPolicyKind::Oracle:
        return "oracle";
    }
    return "?";
}

} // namespace tcfill
