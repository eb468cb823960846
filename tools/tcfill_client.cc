/**
 * @file
 * tcfill_client: batched sweep client for a running tcfilld daemon.
 * Builds a (workload × opts × fill-latency) cross product, asks the
 * daemon for it through ServiceClient::sweep (one tcfill-svc-v3
 * lookup of every point's key, then one sweep of the points that
 * missed), and prints each result with its provenance — "store"
 * (persistent store hit), "memory" (daemon-side coalescing or a
 * shard's pool cache) or "computed".
 *
 * Usage:
 *   tcfill_client --socket PATH [options] [workload[,...] | all]
 *
 * Options:
 *   --socket PATH          daemon socket (required)
 *   --opts LIST            comma list of moves,reassoc,scaled,
 *                          placement,dce — or all / none / extended
 *   --opts-list "A;B;C"    sweep several --opts specs (semicolon
 *                          separated; overrides --opts)
 *   --fill-latency N       fill pipeline latency in cycles (default 5)
 *   --fill-latency-list "N;M"  sweep several fill latencies
 *   --max-insts N          retire at most N instructions (0 = all)
 *   --scale N              workload scale factor (default 1)
 *   --no-trace-cache       fetch from the I-cache only
 *   --no-inactive-issue    disable inactive issue
 *   --tc-entries N         trace cache entries (default 2048)
 *   --stats-json FILE      write a tcfill-stats-v1 document with a
 *                          `service` provenance section
 *   --progress             live sweep progress on stderr (the daemon
 *                          sends progress frames only when asked)
 *   --require SOURCE       exit 1 unless every result came from
 *                          SOURCE (store | memory | computed)
 *   --server-stats         print the daemon's stats JSON and exit
 *   --ping                 check the daemon is alive and exit
 *   --shutdown             ask the daemon to exit
 *   --help, -h             this text
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "obs/progress.hh"
#include "service/client.hh"
#include "sim/stats_io.hh"
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
        "usage: tcfill_client --socket PATH [options]\n"
        "                     [workload[,workload...] | all]\n"
        "  --opts LIST | --opts-list \"A;B;C\" | --fill-latency N\n"
        "  --fill-latency-list \"N;M\" | --max-insts N | --scale N\n"
        "  --no-trace-cache | --no-inactive-issue | --tc-entries N\n"
        "  --stats-json FILE | --progress | --require SOURCE\n"
        "  --server-stats | --ping | --shutdown\n"
        "run `tcfill_client --help` for full option descriptions\n";
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &spec, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t at = spec.find(sep, pos);
        std::string tok = spec.substr(
            pos,
            at == std::string::npos ? spec.size() - pos : at - pos);
        if (!tok.empty())
            out.push_back(tok);
        if (at == std::string::npos)
            break;
        pos = at + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string workload = "compress";
    unsigned scale = 1;
    std::vector<std::string> opts_specs;
    std::vector<std::uint64_t> latencies;
    std::uint64_t max_insts = 0;
    bool no_trace_cache = false;
    bool no_inactive_issue = false;
    unsigned tc_entries = 0;
    std::string stats_json;
    std::string require;
    bool show_progress = false;
    bool server_stats = false;
    bool do_ping = false;
    bool do_shutdown = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("option '" + arg + "' needs a value");
            return argv[++i];
        };
        auto number = [&](auto &out) {
            const char *text = next();
            const std::string why = readUnsigned(text, out);
            if (!why.empty())
                usage("option '" + arg + "' " + why);
        };
        if (arg == "--help" || arg == "-h") {
            std::cout <<
                "usage: tcfill_client --socket PATH [options]\n"
                "                     [workload[,workload...] | all]\n"
                "\n"
                "  --socket PATH          daemon socket (required)\n"
                "  --opts LIST            moves,reassoc,scaled,\n"
                "                         placement,dce or\n"
                "                         all/none/extended\n"
                "  --opts-list \"A;B;C\"    sweep several --opts specs\n"
                "  --fill-latency N       fill latency (default 5)\n"
                "  --fill-latency-list \"N;M\"  sweep fill latencies\n"
                "  --max-insts N          retire at most N insts\n"
                "  --scale N              workload scale (default 1)\n"
                "  --no-trace-cache       fetch from the I-cache only\n"
                "  --no-inactive-issue    disable inactive issue\n"
                "  --tc-entries N         trace cache entries\n"
                "  --stats-json FILE      tcfill-stats-v1 document\n"
                "                         with a `service` section\n"
                "  --progress             live progress on stderr\n"
                "  --require SOURCE       fail unless every result\n"
                "                         came from SOURCE (store |\n"
                "                         memory | computed)\n"
                "  --server-stats         print daemon stats and exit\n"
                "  --ping                 liveness check and exit\n"
                "  --shutdown             ask the daemon to exit\n";
            return 0;
        } else if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--opts") {
            opts_specs = {next()};
        } else if (arg == "--opts-list") {
            opts_specs = splitList(next(), ';');
            fatal_if(opts_specs.empty(), "--opts-list is empty");
        } else if (arg == "--fill-latency") {
            latencies = {0};
            number(latencies[0]);
        } else if (arg == "--fill-latency-list") {
            for (const std::string &tok : splitList(next(), ';')) {
                const std::string why =
                    readUnsigned(tok, latencies.emplace_back());
                if (!why.empty())
                    usage("option '" + arg + "' " + why);
            }
            fatal_if(latencies.empty(),
                     "--fill-latency-list is empty");
        } else if (arg == "--max-insts") {
            number(max_insts);
        } else if (arg == "--scale") {
            number(scale);
            fatal_if(scale == 0, "--scale must be >= 1");
        } else if (arg == "--no-trace-cache") {
            no_trace_cache = true;
        } else if (arg == "--no-inactive-issue") {
            no_inactive_issue = true;
        } else if (arg == "--tc-entries") {
            number(tc_entries);
        } else if (arg == "--stats-json") {
            stats_json = next();
        } else if (arg == "--require") {
            require = next();
            fatal_if(require != "store" && require != "memory" &&
                         require != "computed",
                     "--require expects store|memory|computed");
        } else if (arg == "--progress") {
            show_progress = true;
        } else if (arg == "--server-stats") {
            server_stats = true;
        } else if (arg == "--ping") {
            do_ping = true;
        } else if (arg == "--shutdown") {
            do_shutdown = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage("unknown option '" + arg + "'");
        } else {
            workload = arg;
        }
    }

    if (socket_path.empty())
        usage("option '--socket' is required");
    if (opts_specs.empty())
        opts_specs = {"all"};
    // Refuse a bad pass token before connecting.
    std::vector<PassMask> masks;
    for (const std::string &spec : opts_specs)
        masks.push_back(parsePassMask(spec));

    service::ServiceClient client;
    std::string err;
    fatal_if(!client.connect(socket_path, err), "%s", err.c_str());

    if (do_ping) {
        fatal_if(!client.ping(err), "%s", err.c_str());
        std::printf("pong\n");
        return 0;
    }
    if (server_stats) {
        std::string payload;
        fatal_if(!client.serverStats(payload, err), "%s", err.c_str());
        std::cout << payload << "\n";
        return 0;
    }
    if (do_shutdown) {
        fatal_if(!client.shutdownServer(err), "%s", err.c_str());
        std::printf("shutdown acknowledged\n");
        return 0;
    }

    if (latencies.empty())
        latencies = {5};

    // Cross product in deterministic order: workload-major, then opts,
    // then latency — matching the nested-loop order a script would use.
    std::vector<service::ServiceClient::Point> points;
    for (const std::string &name : workloads::parseList(workload)) {
        for (std::size_t o = 0; o < masks.size(); ++o) {
            for (std::uint64_t lat : latencies) {
                service::ServiceClient::Point p;
                p.workload = name;
                p.scale = scale;
                SimConfig cfg =
                    SimConfig::withOpts(optsFromPassMask(masks[o]), lat);
                cfg.name = "opts=" + opts_specs[o];
                if (latencies.size() > 1)
                    cfg.name += "+lat=" + std::to_string(lat);
                cfg.maxInsts = max_insts;
                if (no_trace_cache)
                    cfg.useTraceCache = false;
                if (no_inactive_issue)
                    cfg.inactiveIssue = false;
                if (tc_entries != 0)
                    cfg.tcache.entries = tc_entries;
                p.config = cfg;
                points.push_back(std::move(p));
            }
        }
    }

    obs::ConsoleProgress console(std::cerr, "service sweep");
    obs::ProgressFn progress;
    if (show_progress)
        progress = [&console](const obs::SweepProgress &p) {
            console(p);
        };

    std::vector<SimResult> results;
    service::ServiceClient::SweepSummary summary;
    fatal_if(!client.sweep(points, results, summary, err, progress),
             "%s", err.c_str());
    if (show_progress)
        console.finish();

    bool first = true;
    for (const SimResult &res : results) {
        if (!first)
            std::cout << "\n";
        first = false;
        res.dump(std::cout);
    }
    std::printf("service: %llu points | %llu store, %llu memory, "
                "%llu computed\n",
                static_cast<unsigned long long>(summary.points),
                static_cast<unsigned long long>(summary.storeHits),
                static_cast<unsigned long long>(summary.memoryHits),
                static_cast<unsigned long long>(summary.computed));

    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        fatal_if(!os, "cannot open '%s'", stats_json.c_str());
        ServiceSweepSummary svc;
        svc.points = summary.points;
        svc.storeHits = summary.storeHits;
        svc.memoryHits = summary.memoryHits;
        svc.computed = summary.computed;
        writeStatsJson(os, "tcfill_client", results, nullptr,
                       /*include_host=*/false, &svc);
    }

    if (!require.empty()) {
        for (const SimResult &res : results) {
            if (res.cacheHit != require) {
                std::fprintf(stderr,
                             "require failed: %s/%s came from '%s', "
                             "not '%s'\n",
                             res.workload.c_str(), res.config.c_str(),
                             res.cacheHit.c_str(), require.c_str());
                return 1;
            }
        }
    }
    return 0;
}
