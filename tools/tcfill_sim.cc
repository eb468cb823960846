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
 *   --opts LIST            comma list of moves,reassoc,scaled,
 *                          placement,dce — or all / none / extended
 *   --fill-latency N       fill pipeline latency in cycles (default 5)
 *   --no-trace-cache       fetch from the I-cache only
 *   --no-inactive-issue    disable inactive issue
 *   --no-promotion         disable branch promotion
 *   --tc-entries N         trace cache entries (default 2048)
 *   --scheduler KIND       instruction scheduler: wakeup (default,
 *                          event-driven) or scan (per-cycle rescan
 *                          reference; identical timing — used by the
 *                          cli.scheduler_identity ctest)
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
 *   --sample-no-checkpoint functionally re-execute each measurement
 *                          prefix instead of restoring checkpoints
 *   --sample-ckpt-stride N checkpoint every N interval boundaries
 *                          (default 1)
 *   --sample-reference     use the serial two-runs-per-point
 *                          reference implementation (oracle for the
 *                          cli.sample_identity ctest)
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

FillOptimizations
parseOpts(const std::string &spec)
{
    if (spec == "all")
        return FillOptimizations::all();
    if (spec == "none")
        return FillOptimizations::none();
    if (spec == "extended")
        return FillOptimizations::extended();

    FillOptimizations opts;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::string tok = spec.substr(
            pos, comma == std::string::npos ? spec.size() - pos
                                            : comma - pos);
        if (tok == "moves") {
            opts.markMoves = true;
        } else if (tok == "reassoc") {
            opts.reassociate = true;
        } else if (tok == "scaled") {
            opts.scaledAdds = true;
        } else if (tok == "placement") {
            opts.placement = true;
        } else if (tok == "dce") {
            opts.deadCodeElim = true;
        } else if (!tok.empty()) {
            fatal("unknown optimization '%s'", tok.c_str());
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return opts;
}

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: tcfill_sim [options] [workload[,workload...] | all]\n"
        "  --list | --list-workloads | --threads N | -j N | --scale N\n"
        "  --max-insts N\n"
        "  --opts LIST | --fill-latency N | --no-trace-cache\n"
        "  --no-inactive-issue | --no-promotion | --tc-entries N\n"
        "  --scheduler wakeup|scan\n"
        "  --fill-policy KIND | --list-policies | --policy-window N\n"
        "  --policy-phases K | --policy-threshold F\n"
        "  --policy-hysteresis F | --policy-map SPEC\n"
        "  --stats | --stats-dump | --stats-json FILE | --stats-host\n"
        "  --stats-interval N | --stats-phases K | --trace-events FILE\n"
        "  --pipe-trace FILE | --progress\n"
        "  --record FILE | --replay FILE | --bbv FILE\n"
        "  --bbv-interval N | --sample K:INTERVAL | --sample-warmup N\n"
        "  --sample-jobs N | --sample-no-checkpoint\n"
        "  --sample-ckpt-stride N | --sample-reference\n"
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
        "  --opts LIST            comma list of moves,reassoc,scaled,\n"
        "                         placement,dce — or all/none/extended\n"
        "  --fill-latency N       fill pipeline latency (default 5)\n"
        "  --no-trace-cache       fetch from the I-cache only\n"
        "  --no-inactive-issue    disable inactive issue\n"
        "  --no-promotion         disable branch promotion\n"
        "  --tc-entries N         trace cache entries (default 2048)\n"
        "  --scheduler KIND       wakeup (default, event-driven) or\n"
        "                         scan (per-cycle rescan reference;\n"
        "                         identical timing)\n"
        "\n"
        "Fill pass-selection policy (DESIGN.md §16):\n"
        "  --fill-policy KIND     static (default) | phase | feedback\n"
        "                         | oracle — how the fill unit picks\n"
        "                         the pass set per finalized segment\n"
        "  --list-policies        describe the policies and exit\n"
        "  --policy-window N      decision window in retired insts\n"
        "                         (default 10000)\n"
        "  --policy-phases K      online phase cap (default 8)\n"
        "  --policy-threshold F   new-phase BBV distance^2 threshold\n"
        "                         (default 0.05)\n"
        "  --policy-hysteresis F  feedback: min relative IPC gain to\n"
        "                         adopt a trial mask (default 0.02)\n"
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
        "  --sample-no-checkpoint functionally re-execute each\n"
        "                         measurement prefix instead of\n"
        "                         restoring checkpoints\n"
        "  --sample-ckpt-stride N checkpoint every N interval\n"
        "                         boundaries (default 1; wider strides\n"
        "                         journal fewer pages, fast-forward\n"
        "                         more)\n"
        "  --sample-reference     serial two-runs-per-point reference\n"
        "                         implementation (correctness oracle)\n";
    std::exit(0);
}

std::vector<std::string>
parseWorkloads(const std::string &spec)
{
    std::vector<std::string> names;
    if (spec == "all") {
        for (const auto &w : workloads::suite())
            names.push_back(w.name);
        return names;
    }
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::string tok = spec.substr(
            pos, comma == std::string::npos ? spec.size() - pos
                                            : comma - pos);
        if (!tok.empty())
            names.push_back(workloads::find(tok).name);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (names.empty())
        fatal("no workloads in '%s'", spec.c_str());
    return names;
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
    bool sample_reference = false;
    std::string fill_policy;
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "opts=all";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
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
            threads = static_cast<unsigned>(std::strtoul(next(),
                                                         nullptr, 10));
        } else if (arg == "--scale") {
            scale = static_cast<unsigned>(std::strtoul(next(),
                                                       nullptr, 10));
        } else if (arg == "--max-insts") {
            cfg.maxInsts = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--opts") {
            std::string spec = next();
            cfg.fill.opts = parseOpts(spec);
            cfg.name = "opts=" + spec;
            cfg.tcache.moveBits = cfg.fill.opts.markMoves;
            cfg.tcache.scaledBits = cfg.fill.opts.scaledAdds;
            cfg.tcache.placementBits = cfg.fill.opts.placement;
        } else if (arg == "--fill-policy") {
            fill_policy = next();
            cfg.fill.policy.kind = parseFillPolicyKind(fill_policy);
        } else if (arg == "--list-policies") {
            std::cout << "fill policies (--fill-policy):\n"
                      << listFillPolicies();
            return 0;
        } else if (arg == "--policy-window") {
            cfg.fill.policy.windowInsts =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--policy-phases") {
            cfg.fill.policy.maxPhases = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--policy-threshold") {
            cfg.fill.policy.newPhaseDist = std::atof(next());
        } else if (arg == "--policy-hysteresis") {
            cfg.fill.policy.hysteresis = std::atof(next());
        } else if (arg == "--policy-map") {
            cfg.fill.policy.oracleMap = next();
        } else if (arg == "--fill-latency") {
            cfg.fill.latency = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--no-trace-cache") {
            cfg.useTraceCache = false;
        } else if (arg == "--no-inactive-issue") {
            cfg.inactiveIssue = false;
        } else if (arg == "--no-promotion") {
            cfg.fill.promoteBranches = false;
        } else if (arg == "--tc-entries") {
            cfg.tcache.entries = std::strtoul(next(), nullptr, 10);
        } else if (arg == "--scheduler") {
            std::string kind = next();
            if (kind == "wakeup") {
                cfg.core.scheduler = SchedulerKind::Wakeup;
            } else if (kind == "scan") {
                cfg.core.scheduler = SchedulerKind::Scan;
            } else {
                fatal("unknown scheduler '%s' (wakeup|scan)",
                      kind.c_str());
            }
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-dump") {
            stats_dump_json = true;
        } else if (arg == "--stats-json") {
            stats_json = next();
        } else if (arg == "--stats-host") {
            stats_host = true;
        } else if (arg == "--stats-interval") {
            cfg.statsInterval = std::strtoull(next(), nullptr, 10);
            fatal_if(cfg.statsInterval == 0,
                     "--stats-interval must be positive");
        } else if (arg == "--stats-phases") {
            cfg.statsPhases = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
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
            bbv_interval = std::strtoull(next(), nullptr, 10);
            fatal_if(bbv_interval == 0,
                     "--bbv-interval must be positive");
        } else if (arg == "--sample") {
            std::string spec = next();
            std::size_t colon = spec.find(':');
            fatal_if(colon == std::string::npos,
                     "--sample expects K:INTERVAL, got '%s'",
                     spec.c_str());
            sample_spec.k = static_cast<unsigned>(
                std::strtoul(spec.substr(0, colon).c_str(), nullptr,
                             10));
            sample_spec.interval = std::strtoull(
                spec.substr(colon + 1).c_str(), nullptr, 10);
            fatal_if(sample_spec.k == 0 || sample_spec.interval == 0,
                     "--sample expects positive K and INTERVAL");
            do_sample = true;
        } else if (arg == "--sample-warmup") {
            sample_spec.warmup = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--sample-jobs") {
            sample_spec.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--sample-no-checkpoint") {
            sample_spec.useCheckpoints = false;
        } else if (arg == "--sample-ckpt-stride") {
            sample_spec.checkpointStride = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
            fatal_if(sample_spec.checkpointStride == 0,
                     "--sample-ckpt-stride must be positive");
        } else if (arg == "--sample-reference") {
            sample_reference = true;
        } else if (arg == "--progress") {
            show_progress = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage();
        } else {
            workload = arg;
            workload_given = true;
        }
    }

    fatal_if(cfg.statsPhases != 0 && cfg.statsInterval == 0,
             "--stats-phases requires --stats-interval");
    fatal_if(cfg.fill.policy.kind == FillPolicyKind::Oracle &&
                 cfg.fill.policy.oracleMap.empty(),
             "--fill-policy oracle requires --policy-map");
    fatal_if(cfg.fill.policy.kind != FillPolicyKind::Static &&
                 cfg.fill.policy.windowInsts == 0,
             "--policy-window must be positive");
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
            std::vector<std::string> names = parseWorkloads(workload);
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
            } else if (sample_reference) {
                // (falls through to the serial oracle; pool knobs are
                // meaningless there)
                res = tracefile::runSampledReference(names[0], scale,
                                                     cfg, sample_spec);
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

    std::vector<std::string> names = parseWorkloads(workload);

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
#if !TCFILL_PIPE_TRACE_ENABLED
            warn("tracer hooks compiled out (TCFILL_PIPE_TRACE=OFF): "
                 "'%s' will only hold the header-free empty stream",
                 pipe_trace.c_str());
#endif
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
#if !TCFILL_PIPE_TRACE_ENABLED
            warn("tracer hooks compiled out (TCFILL_PIPE_TRACE=OFF): "
                 "'%s' will only hold metadata events",
                 trace_events.c_str());
#endif
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
