/**
 * @file
 * SimRunner: a fixed-size worker-thread pool that executes
 * independent (workload, SimConfig) simulations concurrently.
 *
 * Three layers make large design-space sweeps cheap:
 *
 *  - a keyed result cache: each distinct (workload, scale, config)
 *    point is simulated once per runner; every later request —
 *    including one issued while the first is still running — shares
 *    the same future. A baseline config is therefore simulated once
 *    per workload no matter how many variant sweeps reference it.
 *
 *  - a Program build cache: workload kernels are constructed once and
 *    shared read-only across all runs of that workload.
 *
 *  - per-run wall-clock / throughput counters folded into SimResult
 *    (see SimResult::hostSeconds).
 *
 * Determinism: a simulation's outcome depends only on its Program and
 * SimConfig — Processor instances share no mutable state — so every
 * cycle/IPC figure is bit-identical to a serial run regardless of
 * thread count, scheduling order, or cache hits.
 */

#ifndef TCFILL_SIM_RUNNER_HH
#define TCFILL_SIM_RUNNER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "asm/program.hh"
#include "obs/progress.hh"
#include "sim/config.hh"
#include "sim/result.hh"

namespace tcfill
{

/**
 * Stable, exhaustive serialization of every behavior-affecting field
 * of a SimConfig (everything except the cosmetic name). Two configs
 * with equal keys produce bit-identical simulations, so this is the
 * SimRunner result-cache key. It is one visitor over the knob table,
 * visitKnobs() in sim/config_io.hh, as the wire codec is.
 */
std::string configCacheKey(const SimConfig &cfg);

/**
 * FNV-1a 64 (hex) content digest of a live workload source identity
 * ("workload:<name>@<scale>") — the SimResult::sourceDigest of every
 * live/sample run and the identity half of the service store key.
 */
std::string workloadDigest(const std::string &workload, unsigned scale);

/**
 * The SimRunner result-cache key of a (workload, scale, config)
 * point: "<workload>@<scale>#<configCacheKey>". Also the persistent
 * service store key (src/service/store.hh), so the in-memory cache,
 * the on-disk store and the daemon's coalescing table all address
 * results identically by construction.
 */
std::string simPointKey(const std::string &workload, unsigned scale,
                        const SimConfig &cfg);

/** Worker-thread pool with result and program caches. */
class SimRunner
{
  public:
    struct CacheStats
    {
        std::uint64_t resultHits = 0;       ///< submits served from cache
        std::uint64_t resultMisses = 0;     ///< simulations enqueued
        std::uint64_t programsBuilt = 0;    ///< distinct kernels built
    };

    /**
     * The most worker threads a command line or TCFILL_THREADS may
     * ask one pool for.
     */
    static constexpr unsigned kMaxThreads = 1024;

    /** @param threads worker count; 0 = defaultThreads(). */
    explicit SimRunner(unsigned threads = 0);

    /** Drains all queued work, then joins the workers. */
    ~SimRunner();

    SimRunner(const SimRunner &) = delete;
    SimRunner &operator=(const SimRunner &) = delete;

    /**
     * Enqueue one simulation (or attach to the cached/in-flight one).
     * The returned future never throws for cache hits; a panicking
     * simulation aborts the process as it would serially.
     *
     * Note: a cached result keeps the config *name* of the first
     * submission; use run() when the label matters.
     *
     * @param cache_hit optional out-param: set true when this submit
     *        attached to an already-known point instead of enqueuing
     *        a fresh simulation (result provenance; see
     *        SimResult::cacheHit).
     */
    std::shared_future<SimResult>
    submit(const std::string &workload, const SimConfig &cfg,
           unsigned scale = 1, bool *cache_hit = nullptr);

    /**
     * Enqueue an arbitrary simulation job under an explicit cache
     * key (or attach to the cached/in-flight one). This is how
     * non-(workload, config) points ride the pool and result cache —
     * e.g. the simpoints of a sampled run, keyed on their measurement
     * geometry (tracefile::runSampled). The key must capture
     * everything the job's outcome depends on; @p job runs on a worker
     * thread and must be self-contained.
     */
    std::shared_future<SimResult>
    submitKeyed(const std::string &key,
                std::function<SimResult()> job,
                bool *cache_hit = nullptr);

    /**
     * Blocking convenience: submit + wait, with the result's config
     * label rewritten to @p cfg's name and SimResult::cacheHit
     * recording whether this call was served from the result cache.
     */
    SimResult run(const std::string &workload, const SimConfig &cfg,
                  unsigned scale = 1);

    /** Build (once) and share the workload's program image. */
    std::shared_ptr<const Program>
    program(const std::string &workload, unsigned scale = 1);

    /** Block until every queued simulation has finished. */
    void wait();

    unsigned threads() const { return threads_; }

    CacheStats cacheStats() const;

    /**
     * Install (or clear, with nullptr) a progress callback, invoked
     * after every submission and every job completion with a
     * SweepProgress snapshot. Called outside the runner lock, from
     * submitting and worker threads alike: the callback must be
     * thread-safe and must not call back into this runner.
     */
    void setProgress(obs::ProgressFn fn);

    /** Current sweep counters / throughput metrics snapshot. */
    obs::SweepProgress progress() const;

    /**
     * Worker count used when none is requested: the TCFILL_THREADS
     * environment variable if it holds a count from 1 to kMaxThreads
     * (else a warning), or std::hardware_concurrency.
     */
    static unsigned defaultThreads();

  private:
    struct ProgramSlot
    {
        std::once_flag once;
        std::shared_ptr<const Program> prog;
    };

    void workerLoop();
    std::shared_ptr<ProgramSlot>
    programSlot(const std::string &workload, unsigned scale);

    /** Snapshot progress under mu_ (caller holds the lock). */
    obs::SweepProgress progressLocked() const;
    /** Invoke the progress callback (outside the lock) if set. */
    void notifyProgress(const obs::SweepProgress &snap,
                        const obs::ProgressFn &fn);

    unsigned threads_;
    std::vector<std::thread> workers_;

    mutable std::mutex mu_;
    std::condition_variable cv_work_;
    std::condition_variable cv_idle_;
    bool stop_ = false;
    unsigned running_ = 0;
    std::deque<std::function<void()>> jobs_;

    std::map<std::string, std::shared_future<SimResult>> results_;
    std::map<std::string, std::shared_ptr<ProgramSlot>> programs_;
    CacheStats stats_;

    // ---- sweep progress / throughput metrics (observational) --------
    obs::ProgressFn progress_fn_;
    std::uint64_t live_done_ = 0;
    double busy_seconds_ = 0.0;
    bool sweep_started_ = false;
    std::chrono::steady_clock::time_point sweep_start_{};
};

} // namespace tcfill

#endif // TCFILL_SIM_RUNNER_HH
