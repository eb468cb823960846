/**
 * @file
 * Lightweight host self-profiler: scoped RAII timers around the
 * simulator's own hot sections (the six pipeline-stage ticks plus the
 * sampled-run checkpoint/fast-forward/measure paths) accumulating
 * wall-clock nanoseconds and call counts per section. Reported under
 * `--stats-host` (host.profile in the JSON document) so regressions
 * in a stage's host cost are attributable without an external
 * profiler.
 *
 * Like hostSeconds, everything here is observational wall-clock noise:
 * simulated state never depends on it, and the host.profile section
 * only appears inside the opt-in host block. The accumulators are
 * relaxed atomics so sampled-run pool workers can share one profiler;
 * rows() is called once, after the measured work quiesces.
 *
 * Gating: all timer sites are null-gated on the profiler pointer
 * (ScopedHostTimer with a null profiler never reads the clock), so a
 * run without `--stats-host` pays one predictable branch per section
 * per cycle — the same contract as the PipeTracer hooks.
 */

#ifndef TCFILL_OBS_HOST_PROF_HH
#define TCFILL_OBS_HOST_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace tcfill::obs
{

/** The fixed set of profiled sections. */
enum class HostSection : std::uint8_t
{
    Fill,           ///< FillUnit::tick
    Recovery,       ///< RecoveryController::tick
    Retire,         ///< RetireUnit::tick
    Dispatch,       ///< DispatchRename::tick
    Fetch,          ///< FetchEngine::tick
    Issue,          ///< IssueStage::tick (+ dispatchPending)
    Profile,        ///< sampled run: functional BBV profiling pass
    Checkpoint,     ///< sampled run: checkpoint captures
    Restore,        ///< sampled run: checkpoint restores
    FastForward,    ///< sampled run: residual functional fast-forward
    Measure,        ///< sampled run: per-simpoint timing runs
    NumSections,
};

const char *hostSectionName(HostSection s);

/** Per-section wall-clock accumulator. */
class HostProfiler
{
  public:
    static constexpr std::size_t kSections =
        static_cast<std::size_t>(HostSection::NumSections);

    void
    add(HostSection s, std::uint64_t ns)
    {
        const auto i = static_cast<std::size_t>(s);
        ns_[i].fetch_add(ns, std::memory_order_relaxed);
        calls_[i].fetch_add(1, std::memory_order_relaxed);
    }

    /** One reported section (only sections with calls appear). */
    struct Row
    {
        const char *name;
        double seconds;
        std::uint64_t calls;
    };

    /** Non-empty sections in enum order. */
    std::vector<Row> rows() const;

  private:
    std::atomic<std::uint64_t> ns_[kSections] = {};
    std::atomic<std::uint64_t> calls_[kSections] = {};
};

/**
 * RAII section timer: measures from construction to destruction and
 * adds to @p p. A null profiler makes both ends free of clock reads —
 * the timer sites stay in the build unconditionally.
 */
class ScopedHostTimer
{
  public:
    ScopedHostTimer(HostProfiler *p, HostSection s) : p_(p), s_(s)
    {
        if (p_)
            t0_ = std::chrono::steady_clock::now();
    }

    ~ScopedHostTimer()
    {
        if (p_) {
            const auto dt = std::chrono::steady_clock::now() - t0_;
            p_->add(s_,
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(dt)
                            .count()));
        }
    }

    ScopedHostTimer(const ScopedHostTimer &) = delete;
    ScopedHostTimer &operator=(const ScopedHostTimer &) = delete;

  private:
    HostProfiler *p_;
    HostSection s_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace tcfill::obs

#endif // TCFILL_OBS_HOST_PROF_HH
