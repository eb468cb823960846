/**
 * @file
 * tcfill_sim: command-line driver for the simulator. Runs one
 * workload under a fully configurable machine and prints the result
 * summary (optionally the full component statistics).
 *
 * Usage:
 *   tcfill_sim [options] [workload[,workload...] | all]
 *
 * Options:
 *   --list                 list available workloads and exit
 *   --list-workloads       print registered workload names, one per
 *                          line (machine-readable form of --list)
 *   --threads N, -j N      worker threads for multi-workload runs
 *                          (default: all cores; TCFILL_THREADS also
 *                          honored)
 *   --scale N              workload scale factor (default 1)
 *   --max-insts N          retire at most N instructions (0 = all)
 *   --opts LIST            comma (or +) list of moves,reassoc,
 *                          scaled,placement,dce — or all / none /
 *                          extended
 *   --fill-latency N       fill pipeline latency in cycles (default 5)
 *   --no-trace-cache       fetch from the I-cache only
 *   --no-inactive-issue    disable inactive issue
 *   --no-promotion         disable branch promotion
 *   --tc-entries N         trace cache entries (default 2048)
 *   --stats                dump full component statistics
 *   --stats-dump           dump component statistics as JSON
 *   --stats-json FILE      write a tcfill-stats-v1 JSON document with
 *                          one record per workload (byte-identical
 *                          across reruns and -j values by default)
 *   --stats-host           include wall-clock sections in --stats-json
 *                          (and, for in-process runs, the host
 *                          self-profiler's host.profile section)
 *   --stats-interval N     timeline telemetry: snapshot every
 *                          timing-counter delta each N retired insts
 *                          into a `timeline` section of --stats-json
 *                          (deterministic; DESIGN.md §15)
 *   --stats-phases K       tag timeline intervals with one of K BBV
 *                          phase clusters (requires --stats-interval)
 *   --trace-events FILE    write a Chrome/Perfetto trace-event JSON
 *                          file (per-stage spans, fill finalizations,
 *                          squash episodes; single workload — with
 *                          --sample, host checkpoint/restore spans)
 *   --pipe-trace FILE      write a JSONL pipeline lifecycle trace
 *                          (single workload; see DESIGN.md §9)
 *   --progress             live sweep progress on stderr
 *   --help, -h             full option descriptions
 *
 * Trace capture / replay / sampling (single workload; DESIGN.md §12):
 *   --record FILE          run live and capture the committed stream
 *                          to a tcfill-trace-v1 file
 *   --replay FILE          replay a captured trace instead of a live
 *                          run (workload comes from the trace header)
 *   --bbv FILE             write a tcfill-bbv-v1 basic-block-vector
 *                          profile (functional run, no timing)
 *   --bbv-interval N       BBV interval length in instructions
 *                          (default 100000)
 *   --sample K:INTERVAL    BBV-sampled timing estimate: K clusters
 *                          over INTERVAL-instruction intervals
 *   --sample-warmup N      warmup instructions before each sampled
 *                          interval (default 50000)
 *   --sample-jobs N        measurement worker threads (default: all
 *                          cores; the estimate is byte-identical at
 *                          every job count)
 *   --sample-ckpt-stride N checkpoint every N interval boundaries
 *                          (default 1)
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/host_prof.hh"
#include "obs/pipe_trace.hh"
#include "obs/progress.hh"
#include "obs/trace_events.hh"
#include "sim/processor.hh"
#include "sim/runner.hh"
#include "sim/stats_io.hh"
#include "tracefile/bbv.hh"
#include "tracefile/replay.hh"
#include "tracefile/sample.hh"
#include "workloads/suite.hh"

using namespace tcfill;

namespace
{

/** Print @p why (when given), then the usage text; exit 2. */
[[noreturn]] void
usage(const std::string &why = {})
{
    if (!why.empty())
        std::cerr << why << "\n";
    std::cerr <<
        "usage: tcfill_sim [options] [workload[,workload...] | all]\n"
        "  --list | --list-workloads | --threads N | -j N | --scale N\n"
        "  --max-insts N\n"
        "  --opts LIST | --fill-latency N | --no-trace-cache\n"
        "  --no-inactive-issue | --no-promotion | --tc-entries N\n"
        "  --fill-policy KIND | --list-policies | --policy-window N\n"
        "  --policy-phases K | --policy-threshold F | --policy-map SPEC\n"
        "  --stats | --stats-dump | --stats-json FILE | --stats-host\n"
        "  --stats-interval N | --stats-phases K | --trace-events FILE\n"
        "  --pipe-trace FILE | --progress\n"
        "  --record FILE | --replay FILE | --bbv FILE\n"
        "  --bbv-interval N | --sample K:INTERVAL | --sample-warmup N\n"
        "  --sample-jobs N | --sample-ckpt-stride N\n"
        "run `tcfill_sim --help` for full option descriptions\n";
    std::exit(2);
}

[[noreturn]] void
help()
{
    std::cout <<
        "usage: tcfill_sim [options] [workload[,workload...] | all]\n"
        "\n"
        "General:\n"
        "  --list                 list available workloads and exit\n"
        "  --list-workloads       bare workload names, one per line\n"
        "  --threads N, -j N      worker threads for multi-workload\n"
        "                         runs (default: all cores;\n"
        "                         TCFILL_THREADS also honored)\n"
        "  --scale N              workload scale factor (default 1)\n"
        "  --max-insts N          retire at most N instructions\n"
        "\n"
        "Machine configuration:\n"
        "  --opts LIST            comma (or +) list of moves,reassoc,\n"
        "                         scaled,placement,dce — or\n"
        "                         all/none/extended\n"
        "  --fill-latency N       fill pipeline latency (default 5)\n"
        "  --no-trace-cache       fetch from the I-cache only\n"
        "  --no-inactive-issue    disable inactive issue\n"
        "  --no-promotion         disable branch promotion\n"
        "  --tc-entries N         trace cache entries (default 2048)\n"
        "\n"
        "Fill pass-selection policy (DESIGN.md §16):\n"
        "  --fill-policy KIND     static (default) | oracle — how the\n"
        "                         fill unit picks the pass set per\n"
        "                         finalized segment\n"
        "  --list-policies        describe the policies and exit\n"
        "  --policy-window N      decision window in retired insts\n"
        "                         (default 10000)\n"
        "  --policy-phases K      online phase cap (default 8)\n"
        "  --policy-threshold F   new-phase BBV distance^2 threshold\n"
        "                         (default 0.05)\n"
        "  --policy-map SPEC      oracle per-phase mask map, e.g.\n"
        "                         \"*=all\" or \"0=none,1=all\"\n"
        "\n"
        "Statistics and telemetry (DESIGN.md §9, §15):\n"
        "  --stats                dump full component statistics\n"
        "  --stats-dump           dump component statistics as JSON\n"
        "  --stats-json FILE      tcfill-stats-v1 document, one record\n"
        "                         per workload (byte-identical across\n"
        "                         reruns and -j values by default)\n"
        "  --stats-host           include wall-clock host sections in\n"
        "                         --stats-json; in-process runs also\n"
        "                         get the host self-profiler's\n"
        "                         host.profile stage breakdown\n"
        "  --stats-interval N     timeline telemetry: snapshot every\n"
        "                         timing-counter delta each N retired\n"
        "                         instructions into a deterministic\n"
        "                         `timeline` JSON section\n"
        "  --stats-phases K       tag timeline intervals with one of K\n"
        "                         BBV phase clusters (SimPoint-style;\n"
        "                         requires --stats-interval)\n"
        "  --trace-events FILE    Chrome/Perfetto trace-event JSON:\n"
        "                         per-stage pipeline spans, fill-unit\n"
        "                         finalizations, squash episodes and a\n"
        "                         window-occupancy track (single\n"
        "                         workload; with --sample, host-side\n"
        "                         checkpoint/restore/measure spans)\n"
        "  --pipe-trace FILE      JSONL pipeline lifecycle trace\n"
        "                         (single workload)\n"
        "  --progress             live sweep progress on stderr\n"
        "\n"
        "Trace capture / replay (DESIGN.md §12):\n"
        "  --record FILE          run live and capture the committed\n"
        "                         stream to a tcfill-trace-v1 file\n"
        "  --replay FILE          replay a captured trace (workload\n"
        "                         comes from the trace header)\n"
        "  --bbv FILE             write a tcfill-bbv-v1 basic-block\n"
        "                         vector profile (functional run)\n"
        "  --bbv-interval N       BBV interval length (default 100000)\n"
        "\n"
        "BBV sampling (DESIGN.md §14):\n"
        "  --sample K:INTERVAL    BBV-sampled timing estimate: K\n"
        "                         clusters over INTERVAL-instruction\n"
        "                         intervals\n"
        "  --sample-warmup N      warmup instructions before each\n"
        "                         sampled interval (default 50000)\n"
        "  --sample-jobs N        measurement worker threads (default:\n"
        "                         all cores; the estimate is\n"
        "                         byte-identical at every job count)\n"
        "  --sample-ckpt-stride N checkpoint every N interval\n"
        "                         boundaries (default 1; wider strides\n"
        "                         journal fewer pages, fast-forward\n"
        "                         more)\n";
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "compress";
    bool workload_given = false;
    unsigned scale = 1;
    unsigned threads = 0;  // 0 = SimRunner::defaultThreads()
    bool dump_stats = false;
    bool stats_dump_json = false;
    bool stats_host = false;
    bool show_progress = false;
    std::string stats_json;
    std::string pipe_trace;
    std::string trace_events;
    std::string record_path;
    std::string replay_path;
    std::string bbv_path;
    InstSeqNum bbv_interval = 100'000;
    tracefile::SampleSpec sample_spec;
    bool do_sample = false;
    std::string fill_policy;
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "opts=all";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("option '" + arg + "' needs a value");
            return argv[++i];
        };
        auto refuse = [&](const std::string &why) {
            if (!why.empty())
                usage("option '" + arg + "' " + why);
        };
        auto number = [&](auto &out, std::uint64_t max = UINT64_MAX) {
            refuse(readUnsigned(next(), out, max));
        };
        if (arg == "--help" || arg == "-h") {
            help();
        } else if (arg == "--list") {
            for (const auto &w : workloads::suite()) {
                std::printf("%-14s (%-5s) %s\n", w.name.c_str(),
                            w.shortName.c_str(), w.traits.c_str());
            }
            return 0;
        } else if (arg == "--list-workloads") {
            // Bare names only, one per line: stable output for
            // scripts (xargs, CI matrix generation).
            for (const auto &w : workloads::suite())
                std::printf("%s\n", w.name.c_str());
            return 0;
        } else if (arg == "--threads" || arg == "-j") {
            number(threads, SimRunner::kMaxThreads);
        } else if (arg == "--scale") {
            number(scale);
        } else if (arg == "--max-insts") {
            number(cfg.maxInsts);
        } else if (arg == "--opts") {
            std::string spec = next();
            cfg.fill.opts = optsFromPassMask(parsePassMask(spec));
            cfg.name = "opts=" + spec;
        } else if (arg == "--fill-policy") {
            fill_policy = next();
            cfg.fill.policy.kind = parseFillPolicyKind(fill_policy);
        } else if (arg == "--list-policies") {
            std::cout << "fill policies (--fill-policy):\n"
                      << listFillPolicies();
            return 0;
        } else if (arg == "--policy-window") {
            number(cfg.fill.policy.windowInsts);
        } else if (arg == "--policy-phases") {
            number(cfg.fill.policy.maxPhases);
        } else if (arg == "--policy-threshold") {
            refuse(readNumber(next(), cfg.fill.policy.newPhaseDist));
        } else if (arg == "--policy-map") {
            cfg.fill.policy.oracleMap = next();
        } else if (arg == "--fill-latency") {
            number(cfg.fill.latency);
        } else if (arg == "--no-trace-cache") {
            cfg.useTraceCache = false;
        } else if (arg == "--no-inactive-issue") {
            cfg.inactiveIssue = false;
        } else if (arg == "--no-promotion") {
            cfg.fill.promoteBranches = false;
        } else if (arg == "--tc-entries") {
            number(cfg.tcache.entries);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-dump") {
            stats_dump_json = true;
        } else if (arg == "--stats-json") {
            stats_json = next();
        } else if (arg == "--stats-host") {
            stats_host = true;
        } else if (arg == "--stats-interval") {
            number(cfg.statsInterval);
            fatal_if(cfg.statsInterval == 0,
                     "--stats-interval must be positive");
        } else if (arg == "--stats-phases") {
            number(cfg.statsPhases);
        } else if (arg == "--trace-events") {
            trace_events = next();
        } else if (arg == "--pipe-trace") {
            pipe_trace = next();
        } else if (arg == "--record") {
            record_path = next();
        } else if (arg == "--replay") {
            replay_path = next();
        } else if (arg == "--bbv") {
            bbv_path = next();
        } else if (arg == "--bbv-interval") {
            number(bbv_interval);
            fatal_if(bbv_interval == 0,
                     "--bbv-interval must be positive");
        } else if (arg == "--sample") {
            const std::string_view spec = next();
            const std::size_t colon = spec.find(':');
            if (colon == spec.npos ||
                !readUnsigned(spec.substr(0, colon), sample_spec.k)
                     .empty() ||
                !readUnsigned(spec.substr(colon + 1),
                              sample_spec.interval).empty())
                usage("option '--sample' needs K:INTERVAL, two "
                      "integers, got '" + std::string(spec) + "'");
            fatal_if(sample_spec.k == 0 || sample_spec.interval == 0,
                     "--sample expects positive K and INTERVAL");
            do_sample = true;
        } else if (arg == "--sample-warmup") {
            number(sample_spec.warmup);
        } else if (arg == "--sample-jobs") {
            number(sample_spec.jobs, SimRunner::kMaxThreads);
        } else if (arg == "--sample-ckpt-stride") {
            number(sample_spec.checkpointStride);
            fatal_if(sample_spec.checkpointStride == 0,
                     "--sample-ckpt-stride must be positive");
        } else if (arg == "--progress") {
            show_progress = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage("unknown option '" + arg + "'");
        } else {
            workload = arg;
            workload_given = true;
        }
    }

    fatal_if(cfg.statsPhases != 0 && cfg.statsInterval == 0,
             "--stats-phases requires --stats-interval");
    // Refuse a machine that cannot run (e.g. --fill-policy oracle with
    // no --policy-map) before any output file is opened.
    const std::string cfg_err = cfg.check();
    fatal_if(!cfg_err.empty(), "%s", cfg_err.c_str());
    // The policy is part of the configuration identity: distinguish
    // sweep rows (and result-cache keys already differ).
    if (cfg.fill.policy.kind != FillPolicyKind::Static)
        cfg.name += "+policy=" + fill_policy;
    fatal_if(!trace_events.empty() && !pipe_trace.empty(),
             "--trace-events and --pipe-trace are mutually exclusive "
             "(both claim the pipeline tracer seam)");

    const int trace_modes = (record_path.empty() ? 0 : 1) +
        (replay_path.empty() ? 0 : 1) + (bbv_path.empty() ? 0 : 1) +
        (do_sample ? 1 : 0);
    fatal_if(trace_modes > 1,
             "--record/--replay/--bbv/--sample are mutually exclusive");
    if (trace_modes == 1) {
        fatal_if(dump_stats || stats_dump_json || !pipe_trace.empty(),
                 "--stats/--stats-dump/--pipe-trace do not combine "
                 "with trace capture/replay/sampling modes");
        fatal_if(!trace_events.empty() && !do_sample,
                 "--trace-events combines with normal runs and "
                 "--sample only");

        // Sampled-run host telemetry: checkpoint/restore/fast-forward
        // spans on the host timebase, plus the self-profiler's
        // section breakdown. Neither affects the estimate.
        std::ofstream events_os;
        std::unique_ptr<obs::TraceEventWriter> events;
        if (!trace_events.empty()) {
            events_os.open(trace_events);
            fatal_if(!events_os, "cannot open '%s'",
                     trace_events.c_str());
            events = std::make_unique<obs::TraceEventWriter>(events_os);
            sample_spec.events = events.get();
        }
        obs::HostProfiler host_prof;
        if (stats_host && do_sample)
            sample_spec.profiler = &host_prof;

        SimResult res;
        if (!replay_path.empty()) {
            // The workload identity comes from the trace header; a
            // workload argument would be ignored, so reject it.
            fatal_if(workload_given,
                     "--replay takes no workload argument");
            res = tracefile::replayTrace(replay_path, cfg);
        } else {
            std::vector<std::string> names = workloads::parseList(workload);
            fatal_if(names.size() != 1,
                     "--record/--bbv/--sample work with a single "
                     "workload only");
            if (!bbv_path.empty()) {
                Program prog = workloads::build(names[0], scale);
                Executor exec(prog);
                auto ivs = tracefile::profileBbv(exec, bbv_interval,
                                                 cfg.maxInsts);
                std::ofstream os(bbv_path);
                fatal_if(!os, "cannot open '%s'", bbv_path.c_str());
                tracefile::writeBbvJson(os, prog.name, bbv_interval,
                                        ivs);
                std::printf("%s: %llu insts, %zu intervals -> %s\n",
                            prog.name.c_str(),
                            static_cast<unsigned long long>(
                                exec.instCount()),
                            ivs.size(), bbv_path.c_str());
                return 0;
            }
            if (!record_path.empty()) {
                res = tracefile::recordTrace(names[0], scale, cfg,
                                             record_path);
            } else {
                // --threads/-j also applies to the measurement pool
                // unless --sample-jobs picked a width explicitly.
                if (sample_spec.jobs == 0)
                    sample_spec.jobs = threads;
                // Per-simpoint progress rides the SimRunner callback
                // the measurement pool already exposes.
                obs::ConsoleProgress console(std::cerr);
                obs::ProgressFn progress;
                if (show_progress) {
                    progress = [&console](const obs::SweepProgress &p) {
                        console(p);
                    };
                }
                res = tracefile::runSampled(names[0], scale, cfg,
                                            sample_spec, progress);
                if (show_progress)
                    console.finish();
            }
        }
        res.dump(std::cout);
        std::cout << "\n";
        if (!stats_json.empty()) {
            std::ofstream os(stats_json);
            fatal_if(!os, "cannot open '%s'", stats_json.c_str());
            writeStatsJson(os, "tcfill_sim", {res}, nullptr,
                           stats_host);
        }
        return 0;
    }

    std::vector<std::string> names = workloads::parseList(workload);

    const bool in_process = dump_stats || stats_dump_json ||
        !pipe_trace.empty() || !trace_events.empty();
    // --stats-host on a single workload also runs in-process so the
    // host self-profiler can attach; on a sweep it stays on the pool
    // path (host sections there carry wall clock only, no profile).
    if (names.size() == 1 && (in_process || stats_host)) {
        // Component statistics, the pipeline tracers and the host
        // self-profiler need the live Processor, so this path runs
        // in-process.
        Program prog = workloads::build(names[0], scale);
        Processor proc(prog, cfg);

        std::ofstream trace_os;
        std::unique_ptr<obs::JsonlPipeTracer> tracer;
        if (!pipe_trace.empty()) {
            trace_os.open(pipe_trace);
            fatal_if(!trace_os, "cannot open '%s'",
                     pipe_trace.c_str());
            tracer = std::make_unique<obs::JsonlPipeTracer>(trace_os);
            proc.setTracer(tracer.get());
        }

        std::ofstream events_os;
        std::unique_ptr<obs::TraceEventWriter> events;
        std::unique_ptr<obs::TraceEventTracer> events_tracer;
        if (!trace_events.empty()) {
            events_os.open(trace_events);
            fatal_if(!events_os, "cannot open '%s'",
                     trace_events.c_str());
            events =
                std::make_unique<obs::TraceEventWriter>(events_os);
            events_tracer =
                std::make_unique<obs::TraceEventTracer>(*events);
            proc.setTracer(events_tracer.get());
        }

        obs::HostProfiler host_prof;
        if (stats_host)
            proc.setHostProfiler(&host_prof);

        SimResult res = proc.run();
        res.sourceDigest = workloadDigest(names[0], scale);
        if (events_tracer) {
            events_tracer->finish();
            events->close();
        }
        if (stats_host) {
            for (const auto &row : host_prof.rows()) {
                res.hostProfile.push_back(SimResult::HostProfileRow{
                    row.name, row.seconds, row.calls});
            }
        }
        res.dump(std::cout);
        std::cout << "\n";
        if (dump_stats)
            proc.dumpStats(std::cout);
        if (stats_dump_json)
            proc.dumpStatsJson(std::cout);
        if (!stats_json.empty()) {
            std::ofstream os(stats_json);
            fatal_if(!os, "cannot open '%s'", stats_json.c_str());
            writeStatsJson(os, "tcfill_sim", {res}, nullptr,
                           stats_host);
        }
        return 0;
    }
    fatal_if(in_process && names.size() > 1,
             "--stats/--stats-dump/--pipe-trace/--trace-events work "
             "with a single workload only");

    // One simulation per workload, executed concurrently on the
    // runner pool; results print in the requested order.
    SimRunner pool(threads);
    obs::ConsoleProgress console(std::cerr);
    if (show_progress) {
        pool.setProgress(
            [&console](const obs::SweepProgress &p) { console(p); });
    }
    std::vector<std::shared_future<SimResult>> futs;
    std::vector<bool> hits(names.size(), false);
    for (std::size_t i = 0; i < names.size(); ++i) {
        bool hit = false;
        futs.push_back(pool.submit(names[i], cfg, scale, &hit));
        hits[i] = hit;
    }
    std::vector<SimResult> results;
    results.reserve(futs.size());
    for (std::size_t i = 0; i < futs.size(); ++i) {
        SimResult res = futs[i].get();
        res.config = cfg.name;
        res.cacheHit = hits[i] ? "memory" : "computed";
        results.push_back(std::move(res));
    }
    if (show_progress) {
        pool.setProgress(nullptr);
        console.update(pool.progress());
        console.finish();
    }
    bool first = true;
    for (const auto &res : results) {
        if (!first)
            std::cout << "\n";
        first = false;
        res.dump(std::cout);
    }
    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        fatal_if(!os, "cannot open '%s'", stats_json.c_str());
        obs::SweepProgress snap = pool.progress();
        writeStatsJson(os, "tcfill_sim", results, &snap, stats_host);
    }
    return 0;
}
