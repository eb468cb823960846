/**
 * @file
 * sampled: tracefile::runSampled, the shipping sampled-run path, on
 * long runs of compress, li and the high-IPC gnuplot at scale 16,
 * where one full detailed run takes seconds. The geometry is warmed
 * (50,000-instruction warmup before each 100,000-instruction
 * interval): at bench/perf_sample's 2,000-instruction warmup the
 * estimate of compress@8 is 57% off its full run (README.md).
 *
 * The estimate's accuracy is scored against full detailed-run IPCs
 * pinned in reference.json; `--make-reference` regenerates them.
 *
 * Host time: every runSampled call follows a HostRef piece, whose
 * factor normalizes the call's times; a point's time is the median
 * over the untraced passes.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string_view>

#include "bench.hh"
#include "common/digest.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "sim/processor.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"
#include "tracefile/sample.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;

namespace
{

constexpr unsigned kScale = 16;
const char *const kKernels[] = {"compress", "li", "gnuplot"};
constexpr const char *kReferenceSchema = "tcbench-sample-reference-v1";

tracefile::SampleSpec
sampleSpec()
{
    tracefile::SampleSpec spec;
    spec.k = 4;
    spec.interval = 100'000;
    spec.warmup = 50'000;
    spec.jobs = 1;      // serial: steady host time on a shared machine
    return spec;
}

SimConfig
makeConfig(Cycle latency)
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all(), latency);
    cfg.name = "opts=all+lat=" + std::to_string(latency);
    return cfg;
}

struct Point
{
    std::string name;
    Cycle latency;
};

/** A pinned full run. */
struct FullRun
{
    InstSeqNum retired = 0;
    double ipc = 0;
};

/** Full runs by (kernel, fill latency). */
using Reference = std::map<std::pair<std::string, Cycle>, FullRun>;

bool
loadReference(const std::string &path, Reference &ref, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const auto doc = obs::JsonValue::tryParse(ss.str());
    const obs::JsonValue *schema = doc ? doc->find("schema") : nullptr;
    const obs::JsonValue *scale = doc ? doc->find("scale") : nullptr;
    const obs::JsonValue *pts = doc ? doc->find("points") : nullptr;
    if (!schema || !schema->isString() || schema->str != kReferenceSchema ||
        !scale || !scale->isNumber() || scale->u64() != kScale || !pts ||
        !pts->isArray()) {
        err = path + " is not a scale-" + std::to_string(kScale) + " " +
            kReferenceSchema + " document";
        return false;
    }
    for (const obs::JsonValue &p : pts->arr) {
        const obs::JsonValue *w = p.find("workload");
        const obs::JsonValue *lat = p.find("fill_latency");
        const obs::JsonValue *retired = p.find("retired");
        const obs::JsonValue *cycles = p.find("cycles");
        if (!w || !lat || !retired || !cycles || !w->isString() ||
            cycles->u64() == 0) {
            err = path + ": malformed point";
            return false;
        }
        ref[{w->str, lat->u64()}] = {
            retired->u64(), static_cast<double>(retired->u64()) /
                static_cast<double>(cycles->u64())};
    }
    return true;
}

/** Host-time totals of one pass over the points. */
struct Pass
{
    bool traced = false;
    double wall = 0;            ///< whole pass
    /** Per point, normalized: runSampled wall, and its measure section. */
    std::vector<double> callS, measureS;
    /** Whole pass, by section. */
    std::map<std::string, double> sections;
};

} // namespace

Report
runSampledWorkload(const Options &o, Spans &spans)
{
    Report rep;
    const tracefile::SampleSpec base = sampleSpec();

    Random rng(o.seed);
    std::vector<Point> points;
    for (const char *k : kKernels)
        points.push_back({k, kFillLatencies[rng.below(3)]});
    shuffle(points, rng);
    std::vector<std::string> names;
    for (const Point &p : points)
        names.push_back(p.name);

    spans.setActive(o.trace);
    std::vector<Program> progs;
    std::vector<double> setup;
    HostRef host;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const double factor = host.factor();
        setup.push_back(buildPrograms(names, kScale, spans, progs) *
                        factor);
    }
    const std::vector<InstSeqNum> functional =
        functionalCounts(progs, spans, rep);
    spans.setActive(false);

    Reference ref;
    std::string err;
    rep.check(loadReference(o.reference, ref, err), err);

    std::vector<SimResult> first(points.size());
    std::vector<std::string> bodies(points.size());

    std::unique_ptr<HitProbe> probe;
    auto runPass = [&](bool traced) {
        Pass pass;
        pass.traced = traced;
        const auto t_pass = Clock::now();
        Spans::Scope pass_span(spans, "sampled.pass");
        for (std::size_t i = 0; i < points.size(); ++i) {
            // runSampled's own section profiler is a few clock reads
            // per call, so it stays on in untraced passes too: the
            // measure section gives sim_insts_per_s.
            const double factor = host.factor();
            obs::HostProfiler prof;
            tracefile::SampleSpec spec = base;
            spec.profiler = &prof;
            spec.events = traced ? spans.writer() : nullptr;
            SimResult r;
            std::size_t span = 0;
            double wall = 0;
            {
                Spans::Scope scope(spans, "tracefile.runSampled");
                span = scope.id();
                const auto t0 = Clock::now();
                r = tracefile::runSampled(points[i].name, kScale,
                                          makeConfig(points[i].latency),
                                          spec);
                wall = secondsSince(t0);
            }
            if (traced)
                spans.profilerChildren(span, prof);
            double measure = 0;
            for (const obs::HostProfiler::Row &row : prof.rows()) {
                pass.sections[row.name] += row.seconds;
                if (std::string_view(row.name) == "measure")
                    measure = row.seconds;
            }

            rep.check(r.retired == functional[i],
                      "sampled " + points[i].name + ": estimate covers " +
                          std::to_string(r.retired) +
                          " insts, functional run " +
                          std::to_string(functional[i]));
            std::string body = resultRecordText(r);
            if (bodies[i].empty()) {
                bodies[i] = std::move(body);
                first[i] = r;
            } else {
                rep.check(body == bodies[i],
                          "sampled " + points[i].name +
                              ": repeat estimate differs");
            }
            pass.callS.push_back(wall * factor);
            pass.measureS.push_back(measure * factor);
            // One set-up repetition and one hit-latency batch after
            // every call, so they sample the whole run.
            if (probe)
                probe->batch(spans, factor);
            std::vector<Program> rebuilt;
            setup.push_back(buildPrograms(names, kScale, spans, rebuilt) *
                            factor);
        }
        pass.wall = secondsSince(t_pass);
        return pass;
    };

    // The store probe opens after the first pass.
    const std::vector<Pass> passes = runRounds(o, spans, runPass, [&] {
        if (!probe) {
            std::vector<std::pair<std::string, std::string>> records;
            for (std::size_t i = 0; i < points.size(); ++i) {
                records.emplace_back(
                    "sample:" + simPointKey(points[i].name, kScale,
                                            makeConfig(points[i].latency)),
                    bodies[i]);
            }
            probe = std::make_unique<HitProbe>(o.runDir + "/sampled/store",
                                               std::move(records), rep);
        }
    });
    probe->report(rep);
    rep.set("setup_s", median(setup));
    rep.set("workloads.build_s", median(setup));

    // End to end: each point's median normalized untraced call.
    const std::size_t n = points.size();
    std::vector<std::vector<double>> calls(n), measures(n);
    std::vector<double> untraced_wall, traced_wall;
    for (const Pass &p : passes) {
        (p.traced ? traced_wall : untraced_wall).push_back(p.wall);
        for (std::size_t i = 0; i < n && !p.traced; ++i) {
            calls[i].push_back(p.callS[i]);
            measures[i].push_back(p.measureS[i]);
        }
    }
    std::vector<double> point_call(n), point_measure(n);
    for (std::size_t i = 0; i < n; ++i) {
        point_call[i] = median(calls[i]);
        point_measure[i] = median(measures[i]);
    }
    double estimated = 0, detailed = 0, call_s = 0, measure_s = 0;
    std::vector<double> call_ms;
    for (std::size_t i = 0; i < n; ++i) {
        estimated += static_cast<double>(first[i].retired);
        detailed += static_cast<double>(first[i].sample.simpoints) *
            static_cast<double>(base.warmup + base.interval);
        call_s += point_call[i];
        measure_s += point_measure[i];
        call_ms.push_back(point_call[i] * 1e3);
    }

    std::vector<double> ipcs;
    double err_pct = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double ipc = first[i].ipc();
        ipcs.push_back(ipc);
        auto it = ref.find({points[i].name, points[i].latency});
        const bool pinned = it != ref.end();
        rep.check(pinned, "reference has no full run of " + points[i].name +
                              " at fill latency " +
                              std::to_string(points[i].latency));
        if (pinned) {
            rep.check(it->second.retired == functional[i],
                      "reference's full run of " + points[i].name +
                          " retired " + std::to_string(it->second.retired) +
                          ", functional run " +
                          std::to_string(functional[i]) +
                          ": regenerate it with --make-reference");
        }
        const double full = pinned ? it->second.ipc : 0.0;
        const double e = pinned ? std::fabs(ipc - full) / full * 100 : 0.0;
        err_pct += e / static_cast<double>(points.size());
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-9s lat %2llu  estimate IPC %.4f  full-run IPC "
                      "%.4f  error %.2f%%  simpoints %llu",
                      points[i].name.c_str(),
                      static_cast<unsigned long long>(points[i].latency),
                      ipc, full, e,
                      static_cast<unsigned long long>(
                          first[i].sample.simpoints));
        rep.notes.push_back(line);
    }
    rep.set("sim_insts_per_s", detailed / measure_s);
    rep.set("ipc_geomean", geomean(ipcs));
    rep.set("est_insts_per_s", estimated / call_s);
    rep.set("sample_ipc_acc_pct", 100.0 - err_pct);
    rep.set("miss_p50_ms", median(call_ms));
    rep.set("req_per_s", static_cast<double>(n) / call_s);
    rep.notes.push_back(
        "passes: " + std::to_string(untraced_wall.size()) +
        " untraced, " + std::to_string(traced_wall.size()) +
        " traced; rates and miss latency from each point's median "
        "normalized untraced call; setup over " +
        std::to_string(setup.size()) + " builds");

    // Per layer: sampled-run mechanics (deterministic) ...
    SimResult::SampleHost mech;
    for (const SimResult &r : first) {
        mech.checkpoints += r.sample.checkpoints;
        mech.checkpointPages += r.sample.checkpointPages;
        mech.restoredPages += r.sample.restoredPages;
        mech.ffInsts += r.sample.ffInsts;
        mech.simpoints += r.sample.simpoints;
    }
    rep.set("arch.checkpoints", static_cast<double>(mech.checkpoints));
    rep.set("arch.checkpoint_pages",
            static_cast<double>(mech.checkpointPages));
    rep.set("arch.restored_pages", static_cast<double>(mech.restoredPages));
    rep.set("arch.ff_insts", static_cast<double>(mech.ffInsts));
    rep.set("tracefile.simpoints", static_cast<double>(mech.simpoints));

    // ... and host time of the fastest traced pass.
    if (o.trace) {
        const Pass *best = nullptr;
        for (const Pass &p : passes) {
            if (p.traced && (!best || p.wall < best->wall))
                best = &p;
        }
        auto section = [&](const char *name) {
            auto it = best->sections.find(name);
            return it == best->sections.end() ? 0.0 : it->second;
        };
        rep.set("arch.checkpoint_s", section("checkpoint"));
        rep.set("arch.restore_s", section("restore"));
        rep.set("arch.fastforward_s", section("fastForward"));
        rep.set("tracefile.profile_s", section("profile"));
        rep.set("tracefile.measure_s", section("measure"));
        rep.set("obs.trace_overhead_frac",
                median(traced_wall) / median(untraced_wall) - 1.0);
    }

    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](auto a, auto b) {
        return points[a].name < points[b].name;
    });
    digest::Fnv64 h;
    for (std::size_t i : order)
        h.update(bodies[i]);
    rep.digest = digest::hex64(h.value());
    return rep;
}

int
makeSampleReference(const std::string &path)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("schema", kReferenceSchema);
    w.field("command", "python3 tcbench/run.py --make-reference");
    w.field("what", "full detailed-run IPC of every sampled-workload "
                    "point (opts=all, run to completion)");
    w.field("scale", kScale);
    w.beginArray("points");
    for (const char *k : kKernels) {
        const Program prog = workloads::build(k, kScale);
        for (Cycle lat : kFillLatencies) {
            const SimResult r = simulate(prog, makeConfig(lat));
            std::fprintf(stderr, "reference: %s lat %llu IPC %.4f (%.1f s)\n",
                         k, static_cast<unsigned long long>(lat), r.ipc(),
                         r.hostSeconds);
            w.beginObject();
            w.field("workload", k);
            w.field("fill_latency", static_cast<std::uint64_t>(lat));
            w.field("retired", static_cast<std::uint64_t>(r.retired));
            w.field("cycles", static_cast<std::uint64_t>(r.cycles));
            w.field("ipc", r.ipc());
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    w.finish();
    std::ofstream out(path);
    fatal_if(!out, "cannot write '%s'", path.c_str());
    out << os.str();
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

} // namespace tcbench
