/**
 * @file
 * Sweep progress and throughput metrics: a snapshot struct the
 * SimRunner fills on every submit/completion, the callback type it
 * reports through, and a throttled console reporter used by the CLI
 * and bench/paper (--progress).
 */

#ifndef TCFILL_OBS_PROGRESS_HH
#define TCFILL_OBS_PROGRESS_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>

namespace tcfill::obs
{

/**
 * Aggregate state of a sweep through a SimRunner. "Points" are
 * submit() calls: a point is done either immediately (result-cache
 * hit) or when its live simulation finishes.
 */
struct SweepProgress
{
    std::uint64_t points = 0;       ///< submissions seen so far
    std::uint64_t done = 0;         ///< points already satisfied
    std::uint64_t cacheHits = 0;    ///< points served from the cache
    std::uint64_t liveRuns = 0;     ///< simulations enqueued
    std::uint64_t liveDone = 0;     ///< simulations finished
    unsigned running = 0;           ///< workers executing right now
    unsigned workers = 0;           ///< pool size

    /** Host seconds spent inside simulation jobs (summed). */
    double busySeconds = 0.0;
    /** Host seconds since the first submission. */
    double wallSeconds = 0.0;

    /** Mean fraction of the pool kept busy since the first submit. */
    double
    utilization() const
    {
        return workers == 0 || wallSeconds <= 0.0
            ? 0.0
            : busySeconds / (wallSeconds * workers);
    }

    double
    pointsPerSec() const
    {
        return wallSeconds <= 0.0
            ? 0.0
            : static_cast<double>(done) / wallSeconds;
    }
};

/**
 * Progress callback. Invoked by the SimRunner outside its internal
 * lock, potentially from several worker threads at once; must be
 * thread-safe and must not call back into the runner.
 */
using ProgressFn = std::function<void(const SweepProgress &)>;

/**
 * Throttled single-line console reporter:
 *   <label> 12/40 | 5 hits, 7 live (3 running) | util 85%
 * Repaints (carriage return, no newline) only when `done` advances;
 * finish() prints the final summary with throughput and a newline.
 */
class ConsoleProgress
{
  public:
    explicit ConsoleProgress(std::ostream &os, std::string label = "sweep");

    /** Thread-safe; usable directly as a ProgressFn. */
    void operator()(const SweepProgress &p) { update(p); }
    void update(const SweepProgress &p);

    /** Print the closing summary line (idempotent). */
    void finish();

  private:
    void paint(const SweepProgress &p, bool final_line);

    std::mutex mu_;
    std::ostream &os_;
    std::string label_;
    SweepProgress last_;
    std::uint64_t painted_done_ = ~std::uint64_t(0);
    bool open_line_ = false;
    bool finished_ = false;
};

} // namespace tcfill::obs

#endif // TCFILL_OBS_PROGRESS_HH
