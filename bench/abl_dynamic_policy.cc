/**
 * @file
 * Dynamic pass-selection ablation (DESIGN.md §16): whole-run IPC of
 * the adaptive fill policies against the best static configuration,
 * per workload. Not a paper figure — the paper evaluates its four
 * optimizations as fixed whole-run settings; this asks whether
 * choosing the pass set per program phase buys anything on top.
 *
 * Series per workload (all over the paper's four optimizations):
 *   none         uniform-oracle "*=none"  (== static none)
 *   static-best  best of the four candidate masks run uniformly
 *                (uniform-oracle runs are cycle-identical to static,
 *                which the test suite pins)
 *   phase        online per-phase explore-then-exploit
 *   feedback     window-IPC feedback with hysteresis
 *   oracle       per-phase best map composed from the uniform runs'
 *                per-phase accounting, then replayed
 *
 * The oracle column bounds what phase-adaptive selection could win;
 * the phase/feedback columns show what the online policies actually
 * get, including their exploration and one-window-lag costs.
 *
 * --smoke: compress only (the cli.bench_session ctest's quick row).
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "common/table.hh"
#include "fill/policy.hh"

using namespace tcfill;
using namespace tcfill::bench;

namespace
{

constexpr InstSeqNum kWindow = 10'000;

SimConfig
uniformCfg(PassMask mask)
{
    SimConfig cfg = optConfig(FillOptimizations::all());
    cfg.name = "uniform-" + passMaskName(mask);
    cfg.fill.policy.kind = FillPolicyKind::Oracle;
    cfg.fill.policy.windowInsts = kWindow;
    cfg.fill.policy.oracleMap = "*=" + std::to_string(mask);
    return cfg;
}

SimConfig
adaptiveCfg(FillPolicyKind kind, const std::string &oracle_map = "")
{
    SimConfig cfg = optConfig(FillOptimizations::all());
    cfg.name = fillPolicyKindName(kind);
    cfg.fill.policy.kind = kind;
    cfg.fill.policy.windowInsts = kWindow;
    cfg.fill.policy.oracleMap = oracle_map;
    return cfg;
}

/** Per-phase (insts, cycles) rows of one uniform-mask run. */
struct UniformSeries
{
    PassMask mask;
    SimResult res;
};

/**
 * Compose the per-phase best map: for every online phase id, the
 * uniform mask with the highest per-phase IPC. Valid because the
 * phase tracker labels depend only on the committed stream, which is
 * identical across the uniform runs.
 */
std::string
composeBestMap(const std::vector<UniformSeries> &uniform,
               PassMask fallback)
{
    std::map<int, std::pair<PassMask, double>> best;
    for (const UniformSeries &s : uniform) {
        if (!s.res.policy)
            continue;
        for (const PolicyPhaseStat &ph : s.res.policy->phases) {
            if (ph.phase < 0 || ph.cycles == 0)
                continue;
            const double ipc = static_cast<double>(ph.insts) /
                               static_cast<double>(ph.cycles);
            auto it = best.find(ph.phase);
            if (it == best.end() || ipc > it->second.second)
                best[ph.phase] = {s.mask, ipc};
        }
    }
    std::string map;
    for (const auto &[phase, mb] : best)
        map += std::to_string(phase) + "=" +
               std::to_string(mb.first) + ",";
    map += "*=" + std::to_string(fallback);
    return map;
}

} // namespace

int
main(int argc, char **argv)
{
    tcfill::bench::Session session(argc, argv);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const std::vector<PassMask> candidates =
        policyCandidateMasks(kPassMaskAll);

    std::cout << "Dynamic fill-policy ablation: adaptive pass "
                 "selection vs the best static mask\n"
              << "(window " << kWindow << " insts, candidates:";
    for (PassMask m : candidates)
        std::cout << ' ' << passMaskName(m);
    std::cout << ")\n\n";

    if (!smoke) {
        std::vector<SimConfig> warm;
        for (PassMask m : candidates)
            warm.push_back(uniformCfg(m));
        warm.push_back(adaptiveCfg(FillPolicyKind::Phase));
        warm.push_back(adaptiveCfg(FillPolicyKind::Feedback));
        prefetchSuite(warm);
    }

    TextTable t({"benchmark", "none", "static-best", "mask", "phase",
                 "feedback", "oracle"});
    TextTable maps({"benchmark", "phases", "composed best map"});
    double log_phase = 0.0, log_feedback = 0.0, log_oracle = 0.0;
    unsigned n = 0;

    for (const auto &w : workloads::suite()) {
        // Uniform candidate runs: the static series plus the
        // per-phase accounting the composed map is built from.
        std::vector<UniformSeries> uniform;
        for (PassMask m : candidates)
            uniform.push_back({m, run(w, uniformCfg(m))});

        const UniformSeries *none = &uniform[0];
        const UniformSeries *stat = &uniform[0];
        for (const UniformSeries &s : uniform) {
            if (s.mask == kPassMaskNone)
                none = &s;
            if (s.res.ipc() > stat->res.ipc())
                stat = &s;
        }

        const std::string map = composeBestMap(uniform, stat->mask);
        SimResult oracle =
            run(w, adaptiveCfg(FillPolicyKind::Oracle, map));
        SimResult phase = run(w, adaptiveCfg(FillPolicyKind::Phase));
        SimResult feedback =
            run(w, adaptiveCfg(FillPolicyKind::Feedback));

        const double base = stat->res.ipc();
        t.addRow({w.shortName, TextTable::num(none->res.ipc(), 3),
                  TextTable::num(base, 3), passMaskName(stat->mask),
                  pctGain(base, phase.ipc()),
                  pctGain(base, feedback.ipc()),
                  pctGain(base, oracle.ipc())});
        maps.addRow({w.shortName,
                     std::to_string(oracle.policy
                                        ? oracle.policy->phasesSeen
                                        : 0),
                     map});
        log_phase += std::log(phase.ipc() / base);
        log_feedback += std::log(feedback.ipc() / base);
        log_oracle += std::log(oracle.ipc() / base);
        ++n;

        if (smoke)
            break;
    }

    t.addRow({"geo.mean", "", "", "",
              pctGain(1.0, std::exp(log_phase / n)),
              pctGain(1.0, std::exp(log_feedback / n)),
              pctGain(1.0, std::exp(log_oracle / n))});
    t.print(std::cout);
    std::cout << "\nComposed per-phase maps (phase id = online BBV "
                 "label; masks are pass-bit values):\n";
    maps.print(std::cout);
    std::cout << "\nDeltas are vs static-best. 'oracle' replays the "
                 "composed map and bounds per-phase selection;\n"
                 "'phase'/'feedback' are the online policies, "
                 "including exploration and one-window lag.\n";
    return 0;
}
