#include "sim/runner.hh"

#include <charconv>
#include <cstdlib>
#include <string_view>
#include <type_traits>

#include "common/digest.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/config_io.hh"
#include "sim/processor.hh"
#include "workloads/suite.hh"

namespace tcfill
{

// --------------------------------------------------------------------
// Cache keying
// --------------------------------------------------------------------

namespace
{

/**
 * The visitKnobs() walker behind configCacheKey(): each knob's slot is
 * its prefix then its value, formatted exactly as a default
 * std::ostream would format the type — bools as 0/1, integers in
 * decimal, doubles as %g with six significant digits — without paying
 * for a stream. The store keys on disk are this text, so these rules
 * must never change.
 */
class KeyText
{
  public:
    KeyText() { text_.reserve(320); }

    void label(const char *, const std::string &) {}
    void begin(const char *) {}
    void end() {}

    // The table's literals arrive as string_views, whose lengths are
    // known where the table is compiled, so no prefix costs a strlen.
    template <typename T>
    void
    knob(std::string_view prefix, const char *, const T &value)
    {
        fixed(prefix, value);
    }

    template <typename... T>
    void
    fixed(std::string_view text, const T &...values)
    {
        text_ += text;
        (put(values), ...);
    }

    /** The finished text, without the slack of the reservation. */
    std::string
    take()
    {
        text_.shrink_to_fit();
        return std::move(text_);
    }

  private:
    void put(const std::string &s) { text_ += s; }
    void put(bool b) { text_ += b ? '1' : '0'; }
    void put(FillPolicyKind k) { put(static_cast<unsigned>(k)); }

    /** An integer or a double. */
    template <typename T>
    void
    put(T v)
    {
        char buf[32];
        std::to_chars_result res;
        if constexpr (std::is_floating_point_v<T>)
            res = std::to_chars(buf, buf + sizeof(buf), v,
                                std::chars_format::general, 6);
        else
            res = std::to_chars(buf, buf + sizeof(buf), v);
        text_.append(buf, res.ptr);
    }

    std::string text_;
};

} // namespace

std::string
configCacheKey(const SimConfig &cfg)
{
    KeyText key;
    visitKnobs(key, cfg);
    return key.take();
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
        unsigned n = 0;
        if (readUnsigned(env, n, kMaxThreads).empty() && n > 0)
            return n;
        warn("ignoring invalid TCFILL_THREADS='%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
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
