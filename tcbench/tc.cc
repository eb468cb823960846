/**
 * @file
 * tc-hot and tc-thrash: every suite kernel at scale 1, run to
 * completion through Processor::run, pass after pass until the run's
 * time is up. tc-hot is the paper's machine (four fill passes, the
 * default 2,048-entry trace cache); tc-thrash turns the passes off
 * and shrinks the trace cache to 16 lines, so fetch keeps falling back
 * to the I-cache and the trace cache keeps replacing lines.
 *
 * Host time: every kernel run follows a HostRef piece, whose factor
 * normalizes the run's construction and run times; a kernel's time is
 * the median over the untraced passes.
 *
 * A traced run alternates untraced and traced passes; traced passes
 * attach the per-stage host profiler and record layer spans.
 */

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "common/digest.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "sim/processor.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;

namespace
{

/** tc-thrash's trace cache: 16 lines for the whole suite. */
constexpr std::size_t kThrashEntries = 16;

struct Point
{
    std::string name;
    Cycle latency;
};

SimConfig
makeConfig(bool hot, Cycle latency)
{
    SimConfig cfg = SimConfig::withOpts(
        hot ? FillOptimizations::all() : FillOptimizations::none(),
        latency);
    cfg.name = std::string(hot ? "opts=all" : "opts=none+tc=16") +
        "+lat=" + std::to_string(latency);
    if (!hot)
        cfg.tcache.entries = kThrashEntries;
    return cfg;
}

/** Host-time totals of one pass over the suite. */
struct Pass
{
    bool traced = false;
    double wall = 0;        ///< whole pass
    double run = 0;         ///< inside Processor::run
    /** Per kernel, normalized: Processor::run, and construction. */
    std::vector<double> runS, constructS;
    /** Traced passes: profiler seconds and calls by section name. */
    std::map<std::string, double> sections;
    std::map<std::string, std::uint64_t> calls;
};

/** A "group.counter" value of a Processor::dumpStatsJson document. */
double
statValue(const obs::JsonValue &doc, const std::string &path)
{
    const std::size_t dot = path.find('.');
    const obs::JsonValue *g = doc.find(path.substr(0, dot));
    const obs::JsonValue *v = g ? g->find(path.substr(dot + 1)) : nullptr;
    fatal_if(!v || !v->isNumber(), "stats document has no '%s'",
             path.c_str());
    return v->num();
}

} // namespace

Report
runTraceCache(const Options &o, bool hot, Spans &spans)
{
    const std::string workload = hot ? "tc-hot" : "tc-thrash";
    Report rep;

    Random rng(o.seed);
    std::vector<Point> points;
    for (const workloads::Workload &w : workloads::suite())
        points.push_back({w.name, kFillLatencies[rng.below(3)]});
    shuffle(points, rng);
    std::vector<std::string> names;
    for (const Point &p : points)
        names.push_back(p.name);

    // Set-up and the functional oracle count each run must match.
    spans.setActive(o.trace);
    std::vector<Program> progs;
    std::vector<double> setup;
    HostRef host;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const double factor = host.factor();
        setup.push_back(buildPrograms(names, 1, spans, progs) *
                        factor);
    }
    const std::vector<InstSeqNum> functional =
        functionalCounts(progs, spans, rep);
    spans.setActive(false);

    std::vector<SimResult> first(points.size());
    std::vector<std::string> bodies(points.size());
    std::vector<obs::JsonValue> stats(points.size());

    std::unique_ptr<HitProbe> probe;
    auto runPass = [&](bool traced) {
        Pass pass;
        pass.traced = traced;
        const auto t_pass = Clock::now();
        Spans::Scope pass_span(spans, "tc.pass");
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SimConfig cfg = makeConfig(hot, points[i].latency);
            const double factor = host.factor();
            obs::HostProfiler prof;
            std::optional<Processor> proc;
            const double construct = timed(
                spans, "sim.construct",
                [&] { proc.emplace(progs[i], cfg); });
            if (traced)
                proc->setHostProfiler(&prof);
            SimResult res;
            std::size_t run_span = 0;
            double run = 0;
            {
                Spans::Scope scope(spans, "sim.run");
                run_span = scope.id();
                const auto t0 = Clock::now();
                res = proc->run();
                run = secondsSince(t0);
            }
            if (traced) {
                spans.profilerChildren(run_span, prof);
                for (const obs::HostProfiler::Row &row : prof.rows()) {
                    pass.sections[row.name] += row.seconds;
                    pass.calls[row.name] += row.calls;
                }
            }

            rep.check(res.retired == functional[i],
                      workload + " " + points[i].name + ": retired " +
                          std::to_string(res.retired) +
                          " != functional " +
                          std::to_string(functional[i]));
            std::ostringstream os;
            proc->dumpStatsJson(os);
            std::string body = resultRecordText(res) + "\n" + os.str();
            if (bodies[i].empty()) {
                stats[i] = obs::JsonValue::parse(os.str());
                bodies[i] = std::move(body);
                first[i] = res;
            } else {
                rep.check(body == bodies[i],
                          workload + " " + points[i].name +
                              ": repeat run's statistics differ");
            }
            pass.run += run;
            pass.runS.push_back(run * factor);
            pass.constructS.push_back(construct * factor);
            // One set-up repetition and one hit-latency batch after
            // every kernel, so they sample the whole run.
            if (probe)
                probe->batch(spans, factor);
            std::vector<Program> rebuilt;
            setup.push_back(buildPrograms(names, 1, spans, rebuilt) *
                            factor);
        }
        pass.wall = secondsSince(t_pass);
        return pass;
    };

    // Measure whole passes; the store probe opens after the first.
    const std::vector<Pass> passes = runRounds(o, spans, runPass, [&] {
        if (!probe) {
            // Re-asking this workload's answers from a local store.
            std::vector<std::pair<std::string, std::string>> records;
            for (std::size_t i = 0; i < points.size(); ++i) {
                records.emplace_back(
                    simPointKey(points[i].name, 1,
                                makeConfig(hot, points[i].latency)),
                    resultRecordText(first[i]));
            }
            probe = std::make_unique<HitProbe>(
                o.runDir + "/" + workload + "/store", std::move(records),
                rep);
        }
    });
    probe->report(rep);
    rep.set("setup_s", median(setup));
    rep.set("workloads.build_s", median(setup));

    // End to end: each kernel's median normalized untraced run.
    const std::size_t n = points.size();
    std::vector<std::vector<double>> runs(n), constructs(n);
    std::vector<double> untraced_wall, traced_wall;
    for (const Pass &p : passes) {
        (p.traced ? traced_wall : untraced_wall).push_back(p.wall);
        for (std::size_t i = 0; i < n && !p.traced; ++i) {
            runs[i].push_back(p.runS[i]);
            constructs[i].push_back(p.constructS[i]);
        }
    }
    std::vector<double> kernel_run(n), kernel_answer(n);
    for (std::size_t i = 0; i < n; ++i) {
        kernel_run[i] = median(runs[i]);
        kernel_answer[i] = median(constructs[i]) + kernel_run[i];
    }
    double retired = 0, cycles = 0, transformed = 0, bypass = 0;
    std::vector<double> ipcs, answer_ms;
    for (std::size_t i = 0; i < n; ++i) {
        const SimResult &r = first[i];
        ipcs.push_back(r.ipc());
        answer_ms.push_back(kernel_answer[i] * 1e3);
        retired += static_cast<double>(r.retired);
        cycles += static_cast<double>(r.cycles);
        transformed +=
            static_cast<double>(r.dynMoves + r.dynReassoc + r.dynScaled);
        bypass += static_cast<double>(r.bypassDelayed);
    }
    const double run_s = std::accumulate(kernel_run.begin(), kernel_run.end(),
                                         0.0);
    const double answer_s =
        std::accumulate(kernel_answer.begin(), kernel_answer.end(), 0.0);
    rep.set("sim_insts_per_s", retired / run_s);
    rep.set("ipc_geomean", geomean(ipcs));
    rep.set("est_insts_per_s", retired / answer_s);
    // Full detailed runs are their own reference.
    rep.set("sample_ipc_acc_pct", 100.0);
    rep.set("miss_p50_ms", median(answer_ms));
    rep.set("req_per_s", static_cast<double>(n) / answer_s);
    rep.notes.push_back(
        "passes: " + std::to_string(untraced_wall.size()) +
        " untraced, " + std::to_string(traced_wall.size()) +
        " traced; rates and miss latency from each kernel's median "
        "normalized untraced run; setup over " +
        std::to_string(setup.size()) + " builds");

    // Per layer: deterministic counts summed over the suite.
    auto sum = [&](const std::string &path) {
        double s = 0;
        for (const obs::JsonValue &doc : stats)
            s += statValue(doc, path);
        return s;
    };
    const double dispatched = sum("dispatch.insts");
    const double selected = sum("core.selected");
    const double segments = sum("fill.segments");
    const double tc_hits = sum("tcache.hits");
    const double tc_misses = sum("tcache.misses");
    const double installs = sum("tcache.installs");
    rep.set("pipeline.trace_lines", sum("fetch.trace_lines"));
    rep.set("pipeline.icache_lines", sum("fetch.icache_lines"));
    rep.set("pipeline.dispatched_insts", dispatched);
    rep.set("pipeline.dispatch_useful_frac", retired / dispatched);
    rep.set("pipeline.squashes", sum("recovery.squashes"));
    rep.set("pipeline.mispredict_stall_cycles",
            sum("recovery.mispredict_stall_cycles"));
    rep.set("fill.segments", segments);
    rep.set("fill.insts_per_segment",
            segments > 0 ? sum("fill.insts") / segments : 0.0);
    rep.set("fill.transformed_frac", transformed / retired);
    rep.set("fill.moves_marked", sum("fill.moves_marked"));
    rep.set("fill.reassociations", sum("fill.reassociations"));
    rep.set("fill.scaled_adds", sum("fill.scaled_adds"));
    rep.set("fill.promoted_branches", sum("fill.promoted_branches"));
    rep.set("trace.hit_rate", tc_hits / (tc_hits + tc_misses));
    rep.set("trace.installs", installs);
    rep.set("trace.replacements", sum("tcache.replacements"));
    rep.set("trace.installs_per_kinst", installs / retired * 1e3);
    rep.set("uarch.selected", selected);
    rep.set("uarch.select_useful_frac", retired / selected);
    rep.set("uarch.rename_aliases", sum("rename.aliases"));
    rep.set("uarch.mem_sched_stalls", sum("core.mem_sched_stalls"));
    rep.set("uarch.bypass_delayed_frac", bypass / retired);
    rep.set("bpred.accuracy", sum("bpred.correct") / sum("bpred.lookups"));
    rep.set("bpred.mispredicts", sum("fetch.mispredicts"));
    rep.set("bpred.inactive_rescues", sum("fetch.inactive_rescues"));
    rep.set("mem.l1i_misses", sum("l1i.misses"));
    rep.set("mem.l1d_misses", sum("l1d.misses"));
    rep.set("mem.l2_misses", sum("l2.misses"));

    // Per layer: host time of the fastest traced pass.
    if (o.trace) {
        const Pass *best = nullptr;
        for (const Pass &p : passes) {
            if (p.traced && (!best || p.run < best->run))
                best = &p;
        }
        auto section = [&](const char *name) {
            auto it = best->sections.find(name);
            return it == best->sections.end() ? 0.0 : it->second;
        };
        rep.set("sim.run_s", best->run);
        rep.set("sim.ticks_per_cycle",
                static_cast<double>(best->calls.at("fill")) / cycles);
        rep.set("sim.unattributed_frac", spans.selfSeconds("sim.run") /
                                             spans.totalSeconds("sim.run"));
        rep.set("pipeline.fetch_s", section("fetch"));
        rep.set("pipeline.dispatch_s", section("dispatch"));
        rep.set("pipeline.issue_s", section("issue"));
        rep.set("pipeline.retire_s", section("retire"));
        rep.set("pipeline.recovery_s", section("recovery"));
        rep.set("fill.tick_s", section("fill"));
        rep.set("obs.trace_overhead_frac",
                median(traced_wall) / median(untraced_wall) - 1.0);
    }

    // Digest of every simulated statistic, in kernel-name order so it
    // depends on the seed's fill latencies but not its kernel order.
    std::vector<std::size_t> order(points.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](auto a, auto b) {
        return points[a].name < points[b].name;
    });
    digest::Fnv64 h;
    for (std::size_t i : order) {
        h.update(bodies[i]);
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-13s lat %2llu  retired %8llu  IPC %7.4f  "
                      "tc hit %.4f",
                      points[i].name.c_str(),
                      static_cast<unsigned long long>(points[i].latency),
                      static_cast<unsigned long long>(first[i].retired),
                      first[i].ipc(), first[i].tcHitRate());
        rep.notes.push_back(line);
    }
    rep.digest = digest::hex64(h.value());
    return rep;
}

} // namespace tcbench
