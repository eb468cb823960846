/**
 * @file
 * tcfilld: the simulation-as-a-service daemon. Listens on a
 * Unix-domain socket for tcfill-svc-v3 lookups and sweeps (see
 * tools/tcfill_client.cc and DESIGN.md §17), dedupes every requested
 * point against a persistent content-addressed result store, and
 * schedules misses onto a set of forked shard worker processes, each
 * running its own SimRunner pool.
 *
 * Usage:
 *   tcfilld --socket PATH [options]
 *   tcfilld --store-dir DIR --compact
 *
 * Options:
 *   --socket PATH          Unix-domain socket to listen on (required
 *                          unless --compact)
 *   --store-dir DIR        persistent result store directory; omit to
 *                          run with shard memory caches only
 *   --max-store-bytes N    evict least-recently-used results once the
 *                          live key+value bytes exceed N (0 = never)
 *   --shards N             shard worker processes (default 1, at
 *                          most 64)
 *   --shard-threads N      SimRunner threads per shard (default: all
 *                          cores; TCFILL_THREADS also honored)
 *   --compact              offline: rewrite the store log down to its
 *                          live entries, print stats, and exit
 *   --help, -h             this text
 *
 * SIGINT/SIGTERM shut the daemon down cleanly: shards drain, the
 * socket is unlinked, and the `service.` counter group is dumped to
 * stderr.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "common/parse.hh"
#include "service/daemon.hh"
#include "service/store.hh"
#include "sim/runner.hh"

using namespace tcfill;

namespace
{

service::Daemon *g_daemon = nullptr;

void
onSignal(int)
{
    if (g_daemon)
        g_daemon->requestShutdown();
}

/** Print @p why (when given), then the usage text; exit 2. */
[[noreturn]] void
usage(const std::string &why = {})
{
    if (!why.empty())
        std::cerr << why << "\n";
    std::cerr <<
        "usage: tcfilld --socket PATH [--store-dir DIR]\n"
        "               [--max-store-bytes N] [--shards N]\n"
        "               [--shard-threads N]\n"
        "       tcfilld --store-dir DIR --compact\n"
        "run `tcfilld --help` for option descriptions\n";
    std::exit(2);
}

[[noreturn]] void
help()
{
    std::cout <<
        "usage: tcfilld --socket PATH [options]\n"
        "\n"
        "  --socket PATH          Unix-domain socket to listen on\n"
        "  --store-dir DIR        persistent result store directory\n"
        "                         (omit for memory-only operation)\n"
        "  --max-store-bytes N    LRU-evict stored results once live\n"
        "                         key+value bytes exceed N (0 = never)\n"
        "  --shards N             shard worker processes (default 1,\n"
        "                         at most 64)\n"
        "  --shard-threads N      SimRunner threads per shard\n"
        "                         (default: all cores)\n"
        "  --compact              offline: rewrite the store log down\n"
        "                         to its live entries and exit\n"
        "                         (requires --store-dir)\n";
    std::exit(0);
}

int
compactStore(const service::DaemonOptions &opts)
{
    fatal_if(opts.storeDir.empty(), "--compact requires --store-dir");
    service::ResultStore store(opts.storeDir, opts.maxStoreBytes);
    std::string err;
    fatal_if(!store.load(err), "%s", err.c_str());
    std::uint64_t before = store.stats().logBytes;
    fatal_if(!store.compact(err), "%s", err.c_str());
    service::StoreStats s = store.stats();
    std::printf("%s: %llu live records, %llu -> %llu log bytes\n",
                store.path().c_str(),
                static_cast<unsigned long long>(s.liveRecords),
                static_cast<unsigned long long>(before),
                static_cast<unsigned long long>(s.logBytes));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    service::DaemonOptions opts;
    bool compact = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("option '" + arg + "' needs a value");
            return argv[++i];
        };
        auto number = [&](auto &out, std::uint64_t max = UINT64_MAX) {
            const char *text = next();
            const std::string why = readUnsigned(text, out, max);
            if (!why.empty())
                usage("option '" + arg + "' " + why);
        };
        if (arg == "--help" || arg == "-h") {
            help();
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--store-dir") {
            opts.storeDir = next();
        } else if (arg == "--max-store-bytes") {
            number(opts.maxStoreBytes);
        } else if (arg == "--shards") {
            number(opts.shards, service::DaemonOptions::kMaxShards);
            fatal_if(opts.shards == 0, "--shards must be >= 1");
        } else if (arg == "--shard-threads") {
            number(opts.shardThreads, SimRunner::kMaxThreads);
        } else if (arg == "--compact") {
            compact = true;
        } else if (arg.rfind("--", 0) == 0) {
            usage("unknown option '" + arg + "'");
        } else {
            usage("unexpected argument '" + arg + "'");
        }
    }

    if (compact)
        return compactStore(opts);
    if (opts.socketPath.empty())
        usage("option '--socket' is required");

    service::Daemon daemon(opts);
    std::string err;
    fatal_if(!daemon.start(err), "%s", err.c_str());
    g_daemon = &daemon;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    inform("tcfilld: listening on %s (%u shard%s%s%s)",
           opts.socketPath.c_str(), opts.shards,
           opts.shards == 1 ? "" : "s",
           opts.storeDir.empty() ? "" : ", store ",
           opts.storeDir.c_str());
    daemon.serve();
    g_daemon = nullptr;
    daemon.dumpStats(std::cerr);
    inform("tcfilld: shut down");
    return 0;
}
