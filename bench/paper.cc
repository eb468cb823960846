/**
 * @file
 * paper: reproduces the paper's results. Each experiment is one row of
 * kExperiments, named after the table, figure or in-text claim it
 * reproduces: Tables 1-2, Figures 3-8, the ablations of reassociation
 * scope (§4.3), fill latency (§4.6) and inactive issue (§3), and two
 * extensions (dead-write elision, per-phase pass selection).
 *
 * Usage: paper [--stats-json FILE] [--progress] EXPERIMENT... | all
 *
 *   --stats-json FILE   write a tcfill-stats-v1 document of every
 *                       result the experiments read (host sections
 *                       included: bench output is a perf trajectory,
 *                       not a determinism artifact)
 *   --progress          live sweep progress on stderr
 *
 * Every experiment runs on one SimRunner, so a point several of them
 * read (the baseline machine feeds eight) is simulated once per
 * process. The tables are the same bytes at every TCFILL_THREADS
 * width; `all` prints them in table order, one blank line apart.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/executor.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "fill/policy.hh"
#include "obs/progress.hh"
#include "sim/runner.hh"
#include "sim/stats_io.hh"
#include "workloads/suite.hh"

using namespace tcfill;

namespace
{

/** Instruction budget per run (keeps sweeps tractable). */
constexpr InstSeqNum kRunInsts = 220'000;

/** Workload scale of every experiment. */
constexpr unsigned kScale = 1;

/** The paper's baseline machine (§3), no fill-unit optimizations. */
SimConfig
baselineConfig()
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::none());
    cfg.name = "baseline";
    cfg.maxInsts = kRunInsts;
    return cfg;
}

/** Baseline plus the given optimization set. */
SimConfig
optConfig(const FillOptimizations &opts, Cycle fill_latency = 5)
{
    SimConfig cfg = SimConfig::withOpts(opts, fill_latency);
    cfg.name = "optimized";
    cfg.maxInsts = kRunInsts;
    return cfg;
}

/** Percentage string for an IPC ratio, e.g. "+17.3%". */
std::string
pctGain(double base_ipc, double opt_ipc)
{
    double pct = base_ipc > 0.0
        ? (opt_ipc / base_ipc - 1.0) * 100.0
        : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
    return buf;
}

/** The pool every experiment runs on, and the results they read. */
struct Runs
{
    SimRunner pool;
    std::vector<SimResult> read;

    /**
     * Enqueue every suite workload under each of @p cfgs, so the pool
     * simulates ahead of the print loop that reads them in order.
     */
    void
    prefetch(const std::vector<SimConfig> &cfgs)
    {
        for (const auto &w : workloads::suite()) {
            for (const auto &cfg : cfgs)
                pool.submit(w.name, cfg, kScale);
        }
    }

    /** One (workload, config) point at the standard budget. */
    SimResult
    operator()(const workloads::Workload &w, const SimConfig &cfg)
    {
        read.push_back(pool.run(w.name, cfg, kScale));
        return read.back();
    }
};

/** A column computed from the optimized run of a gain table. */
using Cell = std::string (*)(const SimResult &);

/**
 * The paper's gain figure: per workload, the IPC under @p base and
 * @p opt, the gain between them and the @p extra columns; then the
 * geometric-mean gain. @p header names every column.
 */
void
gainTable(Runs &runs, const char *title, const SimConfig &base,
          const SimConfig &opt, std::vector<std::string> header,
          const std::vector<Cell> &extra = {})
{
    std::cout << title << "\n\n";
    runs.prefetch({base, opt});

    TextTable t(std::move(header));
    double log_sum = 0.0;
    unsigned n = 0;
    for (const auto &w : workloads::suite()) {
        SimResult b = runs(w, base);
        SimResult o = runs(w, opt);
        std::vector<std::string> row{w.shortName,
                                     TextTable::num(b.ipc(), 3),
                                     TextTable::num(o.ipc(), 3),
                                     pctGain(b.ipc(), o.ipc())};
        for (Cell cell : extra)
            row.push_back(cell(o));
        t.addRow(std::move(row));
        log_sum += std::log(o.ipc() / b.ipc());
        ++n;
    }
    std::vector<std::string> geo{"geo.mean", "", "",
                                 pctGain(1.0, std::exp(log_sum / n))};
    geo.resize(geo.size() + extra.size());
    t.addRow(std::move(geo));
    t.print(std::cout);
}

/**
 * Table 1: the suite with its instruction counts (synthetic kernels
 * stand in for the paper's inputs; DESIGN.md §4).
 */
void
table1Workloads(Runs &runs)
{
    std::cout << "Table 1: benchmarks (paper: SPECint95 + UNIX apps, "
                 "41M-500M insts;\nhere: like-named kernels at bench "
                 "scale, dynamic counts below)\n\n";
    TextTable t({"benchmark", "suite", "static", "dynamic",
                 "kernel (stands in for the paper's input set)"});
    for (const auto &w : workloads::suite()) {
        auto p = runs.pool.program(w.name, kScale);
        InstSeqNum dyn = runFunctional(*p);
        t.addRow({w.name, w.specint ? "SPECint95" : "UNIX",
                  std::to_string(p->text.size()), std::to_string(dyn),
                  w.traits});
    }
    t.print(std::cout);
}

/**
 * Figure 7: on-path instructions whose last-arriving source waited on
 * the cross-cluster bypass, baseline vs fill-unit placement.
 */
void
fig7BypassDelay(Runs &runs)
{
    std::cout << "Figure 7: bypass-delayed on-path instructions "
                 "(paper mean: 35% baseline -> 29% placed)\n\n";
    const SimConfig base = baselineConfig();
    const SimConfig placed = optConfig(optsFromPassMask(kPassPlacement));
    runs.prefetch({base, placed});

    auto points = [](double delta_pct) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%+.1fpp", delta_pct);
        return std::string(buf);
    };
    TextTable t({"benchmark", "baseline", "placed", "reduction"});
    double sum_base = 0.0, sum_plc = 0.0;
    unsigned n = 0;
    for (const auto &w : workloads::suite()) {
        double b = runs(w, base).fracBypassDelayed();
        double p = runs(w, placed).fracBypassDelayed();
        t.addRow({w.shortName, TextTable::pct(b, 1),
                  TextTable::pct(p, 1), points((p - b) * 100.0)});
        sum_base += b;
        sum_plc += p;
        ++n;
    }
    t.addRow({"mean", TextTable::pct(sum_base / n, 1),
              TextTable::pct(sum_plc / n, 1),
              points((sum_plc - sum_base) * 100.0 / n)});
    t.print(std::cout);
}

/** Figure 8: all four optimizations at fill latency 1, 5 and 10. */
void
fig8Combined(Runs &runs)
{
    std::cout << "Figure 8: all optimizations combined at fill "
                 "latency 1/5/10 (paper: ~+18% mean, 13-44%)\n\n";
    const SimConfig base = baselineConfig();
    const std::array<SimConfig, 3> lat{
        optConfig(FillOptimizations::all(), 1),
        optConfig(FillOptimizations::all(), 5),
        optConfig(FillOptimizations::all(), 10)};
    runs.prefetch({base, lat[0], lat[1], lat[2]});

    TextTable t({"benchmark", "base IPC", "lat1", "lat5", "lat10",
                 "gain@5"});
    std::array<double, 3> log_sum{};
    unsigned n = 0;
    for (const auto &w : workloads::suite()) {
        const double b = runs(w, base).ipc();
        std::vector<std::string> row{w.shortName, TextTable::num(b, 3)};
        std::array<double, 3> ipc{};
        for (std::size_t i = 0; i < lat.size(); ++i) {
            ipc[i] = runs(w, lat[i]).ipc();
            row.push_back(TextTable::num(ipc[i], 3));
            log_sum[i] += std::log(ipc[i] / b);
        }
        row.push_back(pctGain(b, ipc[1]));
        t.addRow(std::move(row));
        ++n;
    }
    t.addRow({"geo.mean", "", pctGain(1.0, std::exp(log_sum[0] / n)),
              pctGain(1.0, std::exp(log_sum[1] / n)),
              pctGain(1.0, std::exp(log_sum[2] / n)), ""});
    t.print(std::cout);
}

/** Table 2: the share of retired instructions each pass transformed. */
void
table2TransformRates(Runs &runs)
{
    std::cout << "Table 2: fraction of retired instructions "
                 "transformed (paper mean ~13%)\n\n";
    const SimConfig all = optConfig(FillOptimizations::all());
    runs.prefetch({all});

    TextTable t({"benchmark", "reg moves", "reassoc", "scaled adds",
                 "total"});
    std::array<double, 4> sums{};
    unsigned n = 0;
    for (const auto &w : workloads::suite()) {
        SimResult r = runs(w, all);
        const std::array<double, 4> frac{r.fracMoves(), r.fracReassoc(),
                                         r.fracScaled(),
                                         r.fracTransformed()};
        std::vector<std::string> row{w.shortName};
        for (std::size_t i = 0; i < frac.size(); ++i) {
            row.push_back(TextTable::pct(frac[i], 1));
            sums[i] += frac[i];
        }
        t.addRow(std::move(row));
        ++n;
    }
    std::vector<std::string> mean{"mean"};
    for (double s : sums)
        mean.push_back(TextTable::pct(s / n, 1));
    t.addRow(std::move(mean));
    t.print(std::cout);
}

/**
 * §4.6: the fill pipeline is off the critical path, so even long fill
 * latencies cost almost nothing. All four optimizations, 1..20 cycles.
 */
void
ablFillLatency(Runs &runs)
{
    std::cout << "Ablation: fill-pipeline latency sweep "
                 "(geo-mean IPC vs 1-cycle fill)\n\n";
    std::vector<SimConfig> cfgs;
    for (Cycle lat : {1, 2, 5, 10, 20})
        cfgs.push_back(optConfig(FillOptimizations::all(), lat));
    runs.prefetch(cfgs);

    std::vector<double> ref;
    for (const auto &w : workloads::suite())
        ref.push_back(runs(w, cfgs[0]).ipc());

    TextTable t({"fill latency", "geo-mean IPC vs lat=1"});
    for (const SimConfig &cfg : cfgs) {
        double log_sum = 0.0;
        std::size_t i = 0;
        for (const auto &w : workloads::suite())
            log_sum += std::log(runs(w, cfg).ipc() / ref[i++]);
        t.addRow({std::to_string(cfg.fill.latency),
                  pctGain(1.0, std::exp(log_sum /
                                        static_cast<double>(i)))});
    }
    t.print(std::cout);
}

/**
 * §4.3: the paper reassociates only across control-flow boundaries
 * (what a compiler cannot do) and reports that lifting the
 * restriction adds no significant gain.
 */
void
ablReassocScope(Runs &runs)
{
    std::cout << "Ablation: reassociation cross-block-only vs "
                 "unrestricted (paper: no significant difference)\n\n";
    FillOptimizations any = optsFromPassMask(kPassReassociate);
    any.reassocOptions.crossBlockOnly = false;
    const SimConfig base = baselineConfig();
    const SimConfig cross = optConfig(optsFromPassMask(kPassReassociate));
    const SimConfig unrestricted = optConfig(any);
    runs.prefetch({base, cross, unrestricted});

    TextTable t({"benchmark", "base IPC", "cross-block", "unrestricted"});
    double ls_cross = 0.0, ls_any = 0.0;
    unsigned n = 0;
    for (const auto &w : workloads::suite()) {
        const double b = runs(w, base).ipc();
        const double rc = runs(w, cross).ipc();
        const double ra = runs(w, unrestricted).ipc();
        t.addRow({w.shortName, TextTable::num(b, 3), pctGain(b, rc),
                  pctGain(b, ra)});
        ls_cross += std::log(rc / b);
        ls_any += std::log(ra / b);
        ++n;
    }
    t.addRow({"geo.mean", "", pctGain(1.0, std::exp(ls_cross / n)),
              pctGain(1.0, std::exp(ls_any / n))});
    t.print(std::cout);
}

// ---- per-phase pass selection (DESIGN.md §16) -----------------------
//
// Not a paper figure: the paper evaluates its optimizations as fixed
// whole-run settings. This asks whether choosing the pass set per
// program phase could buy anything on top. Per workload, over the
// paper's four optimizations:
//   none         uniform oracle "*=none" (== static none)
//   static-best  best of the candidate masks run uniformly (uniform
//                oracle runs are cycle-identical to static ones)
//   oracle       the per-phase best map composed from the uniform
//                runs' per-phase accounting, then replayed; it bounds
//                what phase-adaptive selection could win

constexpr InstSeqNum kPolicyWindow = 10'000;

SimConfig
oracleConfig(const std::string &name, const std::string &oracle_map)
{
    SimConfig cfg = optConfig(FillOptimizations::all());
    cfg.name = name;
    cfg.fill.policy.kind = FillPolicyKind::Oracle;
    cfg.fill.policy.windowInsts = kPolicyWindow;
    cfg.fill.policy.oracleMap = oracle_map;
    return cfg;
}

SimConfig
uniformConfig(PassMask mask)
{
    return oracleConfig("uniform-" + passMaskName(mask),
                        "*=" + std::to_string(mask));
}

/**
 * For every online phase id, the candidate mask with the highest
 * per-phase IPC. Valid because the phase tracker's labels depend only
 * on the committed stream, which is the same in every uniform run.
 */
std::string
composeBestMap(const std::vector<std::pair<PassMask, SimResult>> &uniform,
               PassMask fallback)
{
    std::map<int, std::pair<PassMask, double>> best;
    for (const auto &[mask, res] : uniform) {
        if (!res.policy)
            continue;
        for (const PolicyPhaseStat &ph : res.policy->phases) {
            if (ph.cycles == 0)
                continue;
            const double ipc = static_cast<double>(ph.insts) /
                               static_cast<double>(ph.cycles);
            auto it = best.find(ph.phase);
            if (it == best.end() || ipc > it->second.second)
                best[ph.phase] = {mask, ipc};
        }
    }
    std::string map;
    for (const auto &[phase, mb] : best)
        map += std::to_string(phase) + "=" +
               std::to_string(mb.first) + ",";
    map += "*=" + std::to_string(fallback);
    return map;
}

void
ablDynamicPolicy(Runs &runs)
{
    // All four passes, all but placement, placement alone, none.
    const PassMask candidates[] = {
        kPassMaskAll, static_cast<PassMask>(kPassMaskAll & ~kPassPlacement),
        kPassPlacement, kPassMaskNone};

    std::cout << "Dynamic fill-policy ablation: per-phase oracle pass "
                 "selection vs the best static mask\n"
              << "(window " << kPolicyWindow << " insts, candidates:";
    for (PassMask m : candidates)
        std::cout << ' ' << passMaskName(m);
    std::cout << ")\n\n";

    std::vector<SimConfig> warm;
    for (PassMask m : candidates)
        warm.push_back(uniformConfig(m));
    runs.prefetch(warm);

    TextTable t({"benchmark", "none", "static-best", "mask", "oracle"});
    TextTable maps({"benchmark", "phases", "composed best map"});
    double log_oracle = 0.0;
    unsigned n = 0;
    for (const auto &w : workloads::suite()) {
        std::vector<std::pair<PassMask, SimResult>> uniform;
        for (PassMask m : candidates)
            uniform.emplace_back(m, runs(w, uniformConfig(m)));

        const SimResult *none = &uniform[0].second;
        const auto *stat = &uniform[0];
        for (const auto &u : uniform) {
            if (u.first == kPassMaskNone)
                none = &u.second;
            if (u.second.ipc() > stat->second.ipc())
                stat = &u;
        }

        const std::string map = composeBestMap(uniform, stat->first);
        const SimResult oracle = runs(w, oracleConfig("oracle", map));

        const double base = stat->second.ipc();
        t.addRow({w.shortName, TextTable::num(none->ipc(), 3),
                  TextTable::num(base, 3), passMaskName(stat->first),
                  pctGain(base, oracle.ipc())});
        maps.addRow({w.shortName,
                     std::to_string(oracle.policy
                                        ? oracle.policy->phasesSeen
                                        : 0),
                     map});
        log_oracle += std::log(oracle.ipc() / base);
        ++n;
    }

    t.addRow({"geo.mean", "", "", "",
              pctGain(1.0, std::exp(log_oracle / n))});
    t.print(std::cout);
    std::cout << "\nComposed per-phase maps (phase id = online BBV "
                 "label; masks are pass-bit values):\n";
    maps.print(std::cout);
    std::cout << "\nDeltas are vs static-best. 'oracle' replays the "
                 "composed map and bounds per-phase selection.\n";
}

std::string
pct1(double fraction)
{
    return TextTable::pct(fraction, 1);
}

struct Experiment
{
    const char *name;
    void (*run)(Runs &);
};

const Experiment kExperiments[] = {
    {"table1_workloads", table1Workloads},
    {"fig3_register_moves",
     [](Runs &r) {
         gainTable(r, "Figure 3: register-move marking (paper mean: "
                      "+5%; move idioms ~6% of stream)",
                   baselineConfig(),
                   optConfig(optsFromPassMask(kPassMarkMoves)),
                   {"benchmark", "base IPC", "move IPC", "gain",
                    "marked", "idioms"},
                   {[](const SimResult &o) { return pct1(o.fracMoves()); },
                    [](const SimResult &o) {
                        return pct1(o.fracMoveIdioms());
                    }});
     }},
    {"fig4_reassociation",
     [](Runs &r) {
         gainTable(r, "Figure 4: reassociation, cross-block only "
                      "(paper: +1-2% typical, +23% outliers)",
                   baselineConfig(),
                   optConfig(optsFromPassMask(kPassReassociate)),
                   {"benchmark", "base IPC", "reassoc IPC", "gain",
                    "insts reassoc"},
                   {[](const SimResult &o) {
                       return pct1(o.fracReassoc());
                   }});
     }},
    {"fig5_scaled_adds",
     [](Runs &r) {
         gainTable(r, "Figure 5: scaled adds (paper: +1-8%, mean +3.7%)",
                   baselineConfig(),
                   optConfig(optsFromPassMask(kPassScaledAdds)),
                   {"benchmark", "base IPC", "scaled IPC", "gain",
                    "insts scaled"},
                   {[](const SimResult &o) {
                       return pct1(o.fracScaled());
                   }});
     }},
    {"fig6_placement",
     [](Runs &r) {
         gainTable(r, "Figure 6: instruction placement "
                      "(paper: mean +5%, max +11%)",
                   baselineConfig(),
                   optConfig(optsFromPassMask(kPassPlacement)),
                   {"benchmark", "base IPC", "placed IPC", "gain"});
     }},
    {"fig7_bypass_delay", fig7BypassDelay},
    {"fig8_combined", fig8Combined},
    {"table2_transform_rates", table2TransformRates},
    {"abl_fill_latency", ablFillLatency},
    {"abl_reassoc_scope", ablReassocScope},
    // §3's baseline feature from Friendly et al. [4]: trace-line blocks
    // past the predicted exit issue inactive and activate if the exit
    // branch mispredicts.
    {"abl_inactive_issue",
     [](Runs &r) {
         SimConfig off = baselineConfig();
         off.inactiveIssue = false;
         gainTable(r, "Ablation: inactive issue on (baseline) vs off",
                   off, baselineConfig(),
                   {"benchmark", "IPC off", "IPC on", "gain", "rescues"},
                   {[](const SimResult &o) {
                       return std::to_string(o.inactiveRescues);
                   }});
     }},
    // §5 future work: same-region dead-write elision on top of the four
    // evaluated optimizations (the same-region form needs no recovery
    // safeguards).
    {"abl_dead_code",
     [](Runs &r) {
         gainTable(r, "Extension: +dead-write elision over the paper's "
                      "four optimizations",
                   optConfig(FillOptimizations::all()),
                   optConfig(FillOptimizations::extended()),
                   {"benchmark", "4 opts IPC", "+DCE IPC", "delta",
                    "insts elided"},
                   {[](const SimResult &o) {
                       return TextTable::pct(o.fracElided(), 2);
                   }});
     }},
    {"abl_dynamic_policy", ablDynamicPolicy},
};

/** Print @p why (when given), then the usage text; exit 2. */
[[noreturn]] void
usage(const std::string &why = {})
{
    if (!why.empty())
        std::cerr << why << "\n";
    std::cerr << "usage: paper [--stats-json FILE] [--progress] "
                 "EXPERIMENT... | all\n"
                 "experiments (all runs them in this order):\n";
    for (const Experiment &e : kExperiments)
        std::cerr << "  " << e.name << "\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string stats_json;
    bool show_progress = false;
    std::vector<const Experiment *> chosen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stats-json") {
            if (i + 1 >= argc)
                usage("option '--stats-json' needs a value");
            stats_json = argv[++i];
        } else if (arg == "--progress") {
            show_progress = true;
        } else if (arg == "all") {
            for (const Experiment &e : kExperiments)
                chosen.push_back(&e);
        } else if (arg[0] == '-') {
            usage("unknown option '" + arg + "'");
        } else {
            const Experiment *e = std::begin(kExperiments);
            while (e != std::end(kExperiments) && arg != e->name)
                ++e;
            if (e == std::end(kExperiments))
                usage("unknown experiment '" + arg + "'");
            chosen.push_back(e);
        }
    }
    if (chosen.empty())
        usage();

    // Declared first, so the pool's workers are joined before the
    // console their progress callback points at goes away.
    std::unique_ptr<obs::ConsoleProgress> console;
    Runs runs;
    if (show_progress) {
        console = std::make_unique<obs::ConsoleProgress>(std::cerr, "paper");
        runs.pool.setProgress(
            [c = console.get()](const obs::SweepProgress &p) { (*c)(p); });
    }

    for (std::size_t i = 0; i < chosen.size(); ++i) {
        if (i > 0)
            std::cout << "\n";
        chosen[i]->run(runs);
    }

    if (console) {
        runs.pool.setProgress(nullptr);
        console->update(runs.pool.progress());
        console->finish();
    }
    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            warn("cannot open '%s': stats JSON not written",
                 stats_json.c_str());
        } else {
            obs::SweepProgress snap = runs.pool.progress();
            writeStatsJson(os, "paper", runs.read, &snap,
                           /*include_host=*/true);
        }
    }
    return 0;
}
