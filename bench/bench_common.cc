#include "bench/bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>

#include "common/logging.hh"
#include "obs/progress.hh"
#include "sim/stats_io.hh"

namespace tcfill::bench
{

SimConfig
baselineConfig()
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::none());
    cfg.name = "baseline";
    cfg.maxInsts = kRunInsts;
    return cfg;
}

SimConfig
optConfig(const FillOptimizations &opts, Cycle fill_latency)
{
    SimConfig cfg = SimConfig::withOpts(opts, fill_latency);
    cfg.name = "optimized";
    cfg.maxInsts = kRunInsts;
    return cfg;
}

SimRunner &
runner()
{
    return SimRunner::shared();
}

void
prefetchSuite(const std::vector<SimConfig> &cfgs)
{
    for (const auto &w : workloads::suite()) {
        for (const auto &cfg : cfgs)
            runner().submit(w.name, cfg, kScale);
    }
}

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

// --------------------------------------------------------------------
// Observability session
// --------------------------------------------------------------------

namespace
{

struct SessionState
{
    std::mutex mu;
    std::string statsJson;
    std::string generator;
    bool progress = false;
    std::vector<SimResult> results;
    std::unique_ptr<obs::ConsoleProgress> console;
};

SessionState *g_session = nullptr;

/** Record @p res into the active Session's document, if any. */
void
recordResult(const SimResult &res)
{
    if (!g_session)
        return;
    std::lock_guard<std::mutex> lk(g_session->mu);
    g_session->results.push_back(res);
}

} // namespace

SimResult
run(const workloads::Workload &w, SimConfig cfg)
{
    SimResult res = runner().run(w.name, cfg, kScale);
    recordResult(res);
    return res;
}

Session::Session(int &argc, char **argv)
{
    panic_if(g_session, "only one bench::Session may be active");
    auto st = std::make_unique<SessionState>();

    st->generator = argc > 0 ? argv[0] : "bench";
    std::size_t slash = st->generator.find_last_of('/');
    if (slash != std::string::npos)
        st->generator.erase(0, slash + 1);

    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--stats-json=", 0) == 0) {
            st->statsJson = arg.substr(std::strlen("--stats-json="));
        } else if (arg == "--stats-json" && i + 1 < argc) {
            st->statsJson = argv[++i];
        } else if (arg == "--progress") {
            st->progress = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;

    if (st->statsJson.empty()) {
        if (const char *env = std::getenv("TCFILL_STATS_JSON"))
            st->statsJson = env;
    }
    if (!st->progress) {
        if (const char *env = std::getenv("TCFILL_PROGRESS"))
            st->progress = env[0] != '\0' && env[0] != '0';
    }

    if (st->progress) {
        st->console = std::make_unique<obs::ConsoleProgress>(
            std::cerr, st->generator);
        obs::ConsoleProgress *console = st->console.get();
        runner().setProgress(
            [console](const obs::SweepProgress &p) { (*console)(p); });
    }
    g_session = st.release();
}

Session::~Session()
{
    SessionState *st = g_session;
    g_session = nullptr;
    if (st->console) {
        runner().setProgress(nullptr);
        st->console->update(runner().progress());
        st->console->finish();
    }
    if (!st->statsJson.empty()) {
        std::ofstream os(st->statsJson);
        if (!os) {
            warn("cannot open '%s': stats JSON not written",
                 st->statsJson.c_str());
        } else {
            obs::SweepProgress snap = runner().progress();
            writeStatsJson(os, st->generator, st->results, &snap,
                           /*include_host=*/true);
        }
    }
    delete st;
}

} // namespace tcfill::bench
