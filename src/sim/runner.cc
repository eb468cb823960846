#include "sim/runner.hh"

#include <cstdlib>
#include <sstream>

#include "common/digest.hh"
#include "common/logging.hh"
#include "sim/processor.hh"
#include "workloads/suite.hh"

namespace tcfill
{

// --------------------------------------------------------------------
// Cache keying
// --------------------------------------------------------------------

namespace
{

void
keyCache(std::ostream &os, const CacheParams &c)
{
    os << c.sizeBytes << ',' << c.lineBytes << ',' << c.ways << ';';
}

} // namespace

// Tripwire: configCacheKey() must serialize every behavior-affecting
// field, so any growth of SimConfig or a nested params struct has to
// pass through here. If one of these fires, you added (or removed) a
// field: extend configCacheKey() below, the exhaustive knob test in
// tests/test_runner.cc (ConfigKeyCoversEveryKnob), AND the service
// wire serialization in sim/config_io.cc (configToJson +
// configFromJson; round-trip-tested against this key in
// tests/test_service.cc) — the persistent result store and the
// tcfill-svc-v1 protocol both key off this serialization, so a field
// the key misses would silently alias distinct configs on disk. Then
// update the expected size. Sizes assume the LP64 Itanium ABI both CI
// and the dev containers use; other ABIs skip the check (the unit
// test still runs).
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(ReassocOptions) == 2,
              "ReassocOptions changed: update configCacheKey()");
static_assert(sizeof(FillOptimizations) == 7,
              "FillOptimizations changed: update configCacheKey()");
static_assert(sizeof(FillPolicyParams) == sizeof(std::string) + 32,
              "FillPolicyParams changed: update configCacheKey()");
static_assert(sizeof(FillUnitConfig) ==
                  sizeof(FillPolicyParams) + 32,
              "FillUnitConfig changed: update configCacheKey()");
static_assert(sizeof(TraceCache::Params) == 24,
              "TraceCache::Params changed: update configCacheKey()");
static_assert(sizeof(CacheParams) == sizeof(std::string) + 24,
              "CacheParams changed: update configCacheKey()");
static_assert(sizeof(MemoryHierarchy::Params) ==
                  3 * sizeof(CacheParams) + 24,
              "MemoryHierarchy::Params changed: update configCacheKey()");
static_assert(sizeof(MultiBranchPredictor::Params) == 32,
              "MultiBranchPredictor::Params changed: update "
              "configCacheKey()");
static_assert(sizeof(BiasTable::Params) == 16,
              "BiasTable::Params changed: update configCacheKey()");
static_assert(sizeof(ExecCoreParams) == 24,
              "ExecCoreParams changed: update configCacheKey()");
static_assert(sizeof(SimConfig) ==
                  sizeof(std::string) + sizeof(FillPolicyParams) + 376,
              "SimConfig changed: update configCacheKey()");
#endif

std::string
configCacheKey(const SimConfig &cfg)
{
    std::ostringstream os;
    // Top-level machine knobs.
    os << "tc=" << cfg.useTraceCache << ";ii=" << cfg.inactiveIssue
       << ";fw=" << cfg.fetchWidth << ";fq=" << cfg.fetchQueueLines
       << ";rw=" << cfg.retireWidth << ";win=" << cfg.windowCap
       << ";ras=" << cfg.rasDepth << ";mi=" << cfg.maxInsts
       << ";mc=" << cfg.maxCycles
       // Timeline telemetry never changes timing, but it changes the
       // result document (the timeline section), so results produced
       // at different telemetry settings must never alias in the
       // cache.
       << ";ti=" << cfg.statsInterval << ";tp=" << cfg.statsPhases;
    // Fill unit.
    const FillUnitConfig &f = cfg.fill;
    os << "|fill=" << f.latency << ',' << f.packTraces << ','
       << f.alignLoopHeads << ',' << f.restartAtMissTargets << ','
       << f.promoteBranches << ',' << f.maxInsts << ','
       << f.maxCondBranches;
    const FillOptimizations &o = f.opts;
    os << "|opts=" << o.markMoves << o.reassociate << o.scaledAdds
       << o.placement << o.deadCodeElim << ','
       << o.reassocOptions.crossBlockOnly
       << o.reassocOptions.foldMemDisplacement;
    // Pass-selection policy.
    const FillPolicyParams &p = f.policy;
    os << "|policy=" << static_cast<unsigned>(p.kind) << ','
       << p.maxPhases << ',' << p.windowInsts << ',' << p.newPhaseDist
       << ',' << p.hysteresis << ',' << p.oracleMap;
    // Trace cache.
    os << "|tcache=" << cfg.tcache.entries << ',' << cfg.tcache.ways
       << ',' << cfg.tcache.moveBits << cfg.tcache.scaledBits
       << cfg.tcache.placementBits;
    // Memory hierarchy.
    os << "|mem=";
    keyCache(os, cfg.mem.l1i);
    keyCache(os, cfg.mem.l1d);
    keyCache(os, cfg.mem.l2);
    os << cfg.mem.l2Latency << ',' << cfg.mem.memLatency << ','
       << cfg.mem.memBusOccupancy;
    // Predictors.
    os << "|bp=" << cfg.bpred.pht0Entries << ','
       << cfg.bpred.pht1Entries << ',' << cfg.bpred.pht2Entries << ','
       << cfg.bpred.historyBits;
    os << "|bias=" << cfg.bias.entries << ','
       << cfg.bias.promoteThreshold;
    // Execution core. The scheduler kind never changes timing (the
    // cli.scheduler_identity ctest asserts so) but is keyed anyway:
    // cached results must be reproducible by rerunning the exact
    // config.
    os << "|core=" << cfg.core.numClusters << ','
       << cfg.core.fusPerCluster << ',' << cfg.core.rsEntries << ','
       << cfg.core.crossClusterDelay << ','
       << static_cast<unsigned>(cfg.core.scheduler);
    return os.str();
}

std::string
workloadDigest(const std::string &workload, unsigned scale)
{
    return digest::hex64(digest::fnv64(
        "workload:" + workload + '@' + std::to_string(scale)));
}

std::string
simPointKey(const std::string &workload, unsigned scale,
            const SimConfig &cfg)
{
    return workload + '@' + std::to_string(scale) + '#' +
        configCacheKey(cfg);
}

// --------------------------------------------------------------------
// Pool lifecycle
// --------------------------------------------------------------------

unsigned
SimRunner::defaultThreads()
{
    if (const char *env = std::getenv("TCFILL_THREADS")) {
        unsigned n =
            static_cast<unsigned>(std::strtoul(env, nullptr, 10));
        if (n > 0)
            return n;
        warn("ignoring invalid TCFILL_THREADS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SimRunner &
SimRunner::shared()
{
    static SimRunner instance;
    return instance;
}

SimRunner::SimRunner(unsigned threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SimRunner::~SimRunner()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_work_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
SimRunner::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_work_.wait(lk,
                          [this] { return stop_ || !jobs_.empty(); });
            if (jobs_.empty())
                return;  // stop_ set and queue drained
            job = std::move(jobs_.front());
            jobs_.pop_front();
            ++running_;
        }
        job();
        {
            std::lock_guard<std::mutex> lk(mu_);
            --running_;
        }
        cv_idle_.notify_all();
    }
}

void
SimRunner::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_idle_.wait(lk,
                  [this] { return jobs_.empty() && running_ == 0; });
}

// --------------------------------------------------------------------
// Program cache
// --------------------------------------------------------------------

std::shared_ptr<SimRunner::ProgramSlot>
SimRunner::programSlot(const std::string &workload, unsigned scale)
{
    const std::string key =
        workload + '@' + std::to_string(scale);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = programs_.find(key);
    if (it != programs_.end())
        return it->second;
    auto slot = std::make_shared<ProgramSlot>();
    programs_.emplace(key, slot);
    return slot;
}

std::shared_ptr<const Program>
SimRunner::program(const std::string &workload, unsigned scale)
{
    auto slot = programSlot(workload, scale);
    std::call_once(slot->once, [&] {
        slot->prog = std::make_shared<const Program>(
            workloads::build(workload, scale));
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.programsBuilt;
    });
    return slot->prog;
}

// --------------------------------------------------------------------
// Simulation submission
// --------------------------------------------------------------------

std::shared_future<SimResult>
SimRunner::submit(const std::string &workload, const SimConfig &cfg,
                  unsigned scale, bool *cache_hit)
{
    const std::string key = simPointKey(workload, scale, cfg);
    return submitKeyed(key,
                       [this, workload, scale, cfg]() -> SimResult {
                           auto prog = program(workload, scale);
                           Processor proc(*prog, cfg);
                           SimResult res = proc.run();
                           res.sourceDigest =
                               workloadDigest(workload, scale);
                           return res;
                       },
                       cache_hit);
}

std::shared_future<SimResult>
SimRunner::submitKeyed(const std::string &key,
                       std::function<SimResult()> job, bool *cache_hit)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!sweep_started_) {
        sweep_started_ = true;
        sweep_start_ = std::chrono::steady_clock::now();
    }
    auto it = results_.find(key);
    if (it != results_.end()) {
        ++stats_.resultHits;
        if (cache_hit)
            *cache_hit = true;
        std::shared_future<SimResult> fut = it->second;
        obs::SweepProgress snap = progressLocked();
        obs::ProgressFn fn = progress_fn_;
        lk.unlock();
        notifyProgress(snap, fn);
        return fut;
    }
    ++stats_.resultMisses;
    if (cache_hit)
        *cache_hit = false;

    auto promise = std::make_shared<std::promise<SimResult>>();
    std::shared_future<SimResult> fut =
        promise->get_future().share();
    results_.emplace(key, fut);

    jobs_.push_back([this, job = std::move(job),
                     promise = std::move(promise)] {
        const auto t0 = std::chrono::steady_clock::now();
        SimResult res = job();
        const double busy = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        obs::SweepProgress snap;
        obs::ProgressFn fn;
        // Counters update before the promise resolves, so any thread
        // that has observed the future ready also observes this
        // completion in progress() — keeping the deterministic
        // "done" count exact once every submitted future returned.
        {
            std::lock_guard<std::mutex> jlk(mu_);
            ++live_done_;
            busy_seconds_ += busy;
            snap = progressLocked();
            fn = progress_fn_;
        }
        promise->set_value(std::move(res));
        notifyProgress(snap, fn);
    });
    obs::SweepProgress snap = progressLocked();
    obs::ProgressFn fn = progress_fn_;
    lk.unlock();
    cv_work_.notify_one();
    notifyProgress(snap, fn);
    return fut;
}

SimResult
SimRunner::run(const std::string &workload, const SimConfig &cfg,
               unsigned scale)
{
    bool hit = false;
    SimResult res = submit(workload, cfg, scale, &hit).get();
    res.config = cfg.name;
    res.cacheHit = hit ? "memory" : "computed";
    return res;
}

SimRunner::CacheStats
SimRunner::cacheStats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

// --------------------------------------------------------------------
// Sweep progress / metrics
// --------------------------------------------------------------------

void
SimRunner::setProgress(obs::ProgressFn fn)
{
    std::lock_guard<std::mutex> lk(mu_);
    progress_fn_ = std::move(fn);
}

obs::SweepProgress
SimRunner::progressLocked() const
{
    obs::SweepProgress p;
    p.cacheHits = stats_.resultHits;
    p.liveRuns = stats_.resultMisses;
    p.liveDone = live_done_;
    p.points = stats_.resultHits + stats_.resultMisses;
    p.done = stats_.resultHits + live_done_;
    p.running = running_;
    p.workers = threads_;
    p.busySeconds = busy_seconds_;
    p.wallSeconds = sweep_started_
        ? std::chrono::duration<double>(
              std::chrono::steady_clock::now() - sweep_start_).count()
        : 0.0;
    return p;
}

obs::SweepProgress
SimRunner::progress() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return progressLocked();
}

void
SimRunner::notifyProgress(const obs::SweepProgress &snap,
                          const obs::ProgressFn &fn)
{
    if (fn)
        fn(snap);
}

} // namespace tcfill
