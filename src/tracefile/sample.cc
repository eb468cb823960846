#include "tracefile/sample.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "arch/checkpoint.hh"
#include "common/kmeans.hh"
#include "common/logging.hh"
#include "obs/host_prof.hh"
#include "obs/trace_events.hh"
#include "sim/processor.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcfill::tracefile
{

std::vector<Simpoint>
selectSimpoints(const std::vector<BbvInterval> &intervals, unsigned k)
{
    panic_if(k == 0, "simpoint selection needs k > 0");
    const std::size_t n = intervals.size();
    if (n == 0)
        return {};

    // Projection and clustering live in common/kmeans.{hh,cc} (shared
    // with the obs::Timeline phase tagger); the numerics are pinned by
    // the sample golden fixture, so the hoist is behavior-verbatim.
    std::vector<BbvPoint> pts(n);
    for (std::size_t i = 0; i < n; ++i)
        pts[i] = projectBbv(intervals[i].blocks, intervals[i].insts);
    const KmeansResult km = kmeansBbv(pts, k, kBbvSelectSeed);
    const std::vector<std::size_t> &assign = km.assign;
    const std::vector<BbvPoint> &centroids = km.centroids;

    // Representative per non-empty cluster: the member closest to the
    // centroid; weight is the cluster's share of all intervals.
    std::vector<Simpoint> points;
    for (std::size_t c = 0; c < centroids.size(); ++c) {
        std::size_t rep = n;
        double bd = std::numeric_limits<double>::infinity();
        std::size_t members = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (assign[i] != c)
                continue;
            ++members;
            const double d = bbvDist2(pts[i], centroids[c]);
            if (d < bd) {
                bd = d;
                rep = i;
            }
        }
        if (members == 0)
            continue;
        points.push_back(Simpoint{
            rep, static_cast<double>(members) / static_cast<double>(n)});
    }
    std::sort(points.begin(), points.end(),
              [](const Simpoint &a, const Simpoint &b) {
                  return a.interval < b.interval;
              });
    return points;
}

namespace
{

/** The (skip, warm, measure) geometry of one simpoint measurement. */
struct PointTask
{
    InstSeqNum skip = 0;
    InstSeqNum warm = 0;
    InstSeqNum measure = 0;
};

PointTask
pointTask(const Simpoint &p, const std::vector<BbvInterval> &ivs,
          const SampleSpec &spec)
{
    const InstSeqNum start =
        static_cast<InstSeqNum>(p.interval) * spec.interval;
    const InstSeqNum warm = std::min<InstSeqNum>(spec.warmup, start);
    return PointTask{start - warm, warm, ivs[p.interval].insts};
}

// Host-timebase thread tracks of a sampled run's trace-event export:
// tid 1 is the profiling pass, each simpoint measurement gets its own
// track (tasks run concurrently on the pool, so sharing one track
// would interleave the spans).
constexpr int kHostTidProfile = 1;

int
hostTidPoint(std::size_t i)
{
    return static_cast<int>(i) + 2;
}

/** Emit one host-timebase span; @p t0 from TraceEventWriter::nowUs. */
void
hostSpan(obs::TraceEventWriter *ev, int tid, std::string_view name,
         double t0, std::string_view args = {})
{
    if (ev)
        ev->complete(obs::kTracePidHost, tid, name, t0,
                     ev->nowUs() - t0, args);
}

} // namespace

SimResult
runSampled(const std::string &workload, unsigned scale,
           const SimConfig &cfg, const SampleSpec &spec,
           obs::ProgressFn progress)
{
    panic_if(spec.interval == 0, "sample interval must be positive");
    const auto t0 = std::chrono::steady_clock::now();
    const Program prog = workloads::build(workload, scale);

    if (spec.events) {
        spec.events->processName(obs::kTracePidHost,
                                 "tcfill sampled-run host (wall clock)");
        spec.events->threadName(obs::kTracePidHost, kHostTidProfile,
                                "profile");
    }

    // One functional profiling pass on the fast-stepping path over
    // the same region a full timing run would retire
    // (cfg.maxInsts-capped): BBV vectors for simpoint selection plus
    // incremental checkpoints at interval boundaries so each
    // measurement below restores its start point instead of
    // re-executing the prefix. The host profiler's sections nest:
    // "profile" is inclusive of the "checkpoint" captures taken
    // inside the pass.
    Executor prof_exec(prog);
    CheckpointStore ckpts(prog, prof_exec);
    const InstSeqNum ckpt_every =
        spec.interval * std::max(1u, spec.checkpointStride);
    BbvProfiler prof(spec.interval);
    const double prof_t0 = spec.events ? spec.events->nowUs() : 0.0;
    {
        obs::ScopedHostTimer profile_timer(spec.profiler,
                                           obs::HostSection::Profile);
        {
            // Boundary zero: every skip has a base.
            obs::ScopedHostTimer ckpt_timer(
                spec.profiler, obs::HostSection::Checkpoint);
            ckpts.capture();
        }
        const InstSeqNum cap = cfg.maxInsts;
        InstSeqNum n = 0;
        while (!prof_exec.halted() && (cap == 0 || n < cap)) {
            const Addr pc = prof_exec.state().pc;
            const bool ends_block = prof_exec.fastStep();
            prof.consume(pc, ends_block);
            ++n;
            // No checkpoint at the end of the profiled region: no
            // measurement can start there.
            if (n % ckpt_every == 0 && !prof_exec.halted() &&
                (cap == 0 || n < cap)) {
                obs::ScopedHostTimer ckpt_timer(
                    spec.profiler, obs::HostSection::Checkpoint);
                ckpts.capture();
            }
        }
        prof.finish();
    }
    const std::vector<BbvInterval> &ivs = prof.intervals();
    const InstSeqNum total = prof_exec.instCount();
    if (spec.events) {
        char args[96];
        std::snprintf(args, sizeof(args),
                      "\"insts\": %" PRIu64 ", \"checkpoints\": %zu",
                      static_cast<std::uint64_t>(total), ckpts.size());
        hostSpan(spec.events, kHostTidProfile, "profile", prof_t0,
                 args);
    }

    const std::vector<Simpoint> points = selectSimpoints(ivs, spec.k);
    panic_if(points.empty(), "no intervals to sample (empty program?)");

    // One independent task per simpoint: restore the nearest
    // checkpoint at or before the measurement's fast-forward target,
    // fast-forward the residue, then take both the warmup and the
    // measured-interval cycle counts out of a single capped timing
    // run via the retire-cycle probe. Tasks share only immutable
    // state (Program, CheckpointStore, SimConfig), so any pool width
    // yields the same per-point cycles; the weighted fold below runs
    // serially in simpoint order, so its double arithmetic is the
    // same at every width.
    SimRunner pool(spec.jobs);
    if (progress)
        pool.setProgress(std::move(progress));

    SimResult res;
    res.config = cfg.name;
    res.workload = prog.name;
    res.mode = "sample";
    res.maxInsts = cfg.maxInsts;
    res.retired = total;
    res.sourceDigest = workloadDigest(workload, scale);
    res.sample.jobs = pool.threads();
    res.sample.simpoints = points.size();
    res.sample.checkpoints = ckpts.size();
    res.sample.checkpointPages = ckpts.pagesStored();

    std::vector<PointTask> tasks(points.size());
    std::vector<std::shared_future<SimResult>> futs(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointTask t = pointTask(points[i], ivs, spec);
        tasks[i] = t;

        const std::size_t base = ckpts.latestAtOrBefore(t.skip);
        res.sample.restores += 1;
        res.sample.restoredPages += ckpts.pagesUpTo(base);
        res.sample.ffInsts += t.skip - ckpts.at(base).instCount;

        // Cache key: everything the measurement depends on — the
        // committed stream (workload, scale) and the machine /
        // measurement geometry, around the same configCacheKey()
        // text simPointKey() uses.
        std::ostringstream key;
        key << "sample-pt@" << workload << '/' << scale << '#'
            << configCacheKey(cfg) << '#' << t.skip << ':' << t.warm
            << ':' << t.measure;

        obs::TraceEventWriter *ev = spec.events;
        obs::HostProfiler *hp = spec.profiler;
        const int host_tid = hostTidPoint(i);
        if (ev) {
            char name[32];
            std::snprintf(name, sizeof(name), "simpoint %zu", i);
            ev->threadName(obs::kTracePidHost, host_tid, name);
        }
        futs[i] = pool.submitKeyed(
            key.str(),
            [&prog, &cfg, &ckpts, t, base, ev, hp, host_tid]() {
                std::unique_ptr<Executor> exec;
                const InstSeqNum residue =
                    t.skip - ckpts.at(base).instCount;
                {
                    obs::ScopedHostTimer timer(
                        hp, obs::HostSection::Restore);
                    const double span_t0 = ev ? ev->nowUs() : 0.0;
                    exec = ckpts.restore(base);
                    hostSpan(ev, host_tid, "restore", span_t0);
                }
                {
                    obs::ScopedHostTimer timer(
                        hp, obs::HostSection::FastForward);
                    const double span_t0 = ev ? ev->nowUs() : 0.0;
                    exec->fastForward(residue);
                    char args[48];
                    std::snprintf(args, sizeof(args),
                                  "\"insts\": %" PRIu64,
                                  static_cast<std::uint64_t>(residue));
                    hostSpan(ev, host_tid, "fastForward", span_t0,
                             args);
                }

                obs::ScopedHostTimer timer(hp,
                                           obs::HostSection::Measure);
                const double span_t0 = ev ? ev->nowUs() : 0.0;
                SimConfig run_cfg = cfg;
                run_cfg.maxInsts = t.warm + t.measure;
                Processor proc(*exec, prog.name, exec->state().pc,
                               run_cfg);
                Cycle c_warm = 0;
                if (t.warm > 0)
                    proc.setRetireCycleProbe(t.warm, &c_warm);
                const SimResult full = proc.run();

                SimResult out;
                out.workload = prog.name;
                out.mode = "sample-point";
                out.maxInsts = run_cfg.maxInsts;
                out.retired = t.measure;
                out.cycles = full.cycles - c_warm;
                out.hostSeconds = full.hostSeconds;
                char args[96];
                std::snprintf(args, sizeof(args),
                              "\"warm\": %" PRIu64
                              ", \"measure\": %" PRIu64
                              ", \"cycles\": %" PRIu64,
                              static_cast<std::uint64_t>(t.warm),
                              static_cast<std::uint64_t>(t.measure),
                              static_cast<std::uint64_t>(out.cycles));
                hostSpan(ev, host_tid, "measure", span_t0, args);
                return out;
            });
    }

    double est_cpi = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SimResult r = futs[i].get();
        est_cpi += points[i].weight *
            (static_cast<double>(r.cycles) /
             static_cast<double>(tasks[i].measure));
    }

    res.cycles = static_cast<Cycle>(
        std::llround(est_cpi * static_cast<double>(total)));
    if (spec.profiler) {
        for (const obs::HostProfiler::Row &row :
             spec.profiler->rows()) {
            res.hostProfile.push_back(SimResult::HostProfileRow{
                row.name, row.seconds, row.calls});
        }
    }
    res.hostSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    return res;
}

} // namespace tcfill::tracefile
