/**
 * @file
 * Shared pieces of the tcfill benchmark (README.md): run options, the
 * metric table, the per-workload Report, the in-memory layer spans of
 * a traced run and small statistics helpers.
 *
 * Measuring on a shared host: neighbours slow the simulator down by
 * up to ~1.6x for stretches of seconds to minutes. So every timed
 * piece of work runs right after a piece of fixed reference work
 * (HostRef), and its time is scaled by how slow the reference ran:
 * host times are in units of a host running the reference at its
 * nominal speed. Each workload reports the median over its
 * repetitions of these normalized times (README.md).
 */

#ifndef TCBENCH_BENCH_HH
#define TCBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asm/program.hh"
#include "common/types.hh"
#include "obs/host_prof.hh"

namespace tcfill::obs
{
class TraceEventWriter;
} // namespace tcfill::obs

namespace tcfill::service
{
class ResultStore;
} // namespace tcfill::service

namespace tcbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for stores, sockets and result documents. */
    std::string runDir = ".bench_run";
    /** Pinned full-run IPCs of the sampled workload's points. */
    std::string reference = "tcbench/reference.json";
};

/**
 * Fixed reference work: lookups and updates in a 200,000-entry hash
 * table (~10 MB), which slows down with the simulator when neighbours
 * load the host. Its contents do not depend on the workload seed.
 */
class HostRef
{
  public:
    HostRef();

    /**
     * Time one piece of reference work (~5 ms on a quiet host) and
     * return its nominal time over the measured one: multiply a host
     * time measured next to it by this factor to normalize it.
     */
    double factor();

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> table_;
    std::vector<std::uint64_t> keys_;
    std::uint64_t cursor_ = 0;
};

/** Fill latencies a workload seed draws from (paper: IPC ~flat). */
inline constexpr tcfill::Cycle kFillLatencies[] = {1, 5, 10};

/**
 * Set-up repetitions before measuring; tc-* and sampled add one after
 * every call they time, svc-mixed as many again after its loop.
 * setup_s is the median of their normalized times.
 */
inline constexpr unsigned kSetupReps = 15;

/** Result-store reads per hit-latency batch (p99 has 10 beyond). */
inline constexpr unsigned kHitBatch = 1000;

/** One metric the benchmark can report. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/** Every metric, end-to-end first; BENCHMARK.json mirrors this. */
const std::vector<MetricSpec> &metricTable();

/**
 * Outcome of one workload run: metric values, checked-operation
 * counts and the digest of every simulated statistic it produced.
 */
class Report
{
  public:
    /** Record @p name (must be in metricTable()). */
    void set(const std::string &name, double value);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /**
     * Count one checked operation; a false @p ok is a failure and is
     * logged to stderr with @p what.
     */
    bool check(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Insertion-ordered metric values. */
    const std::vector<std::pair<std::string, double>> &
    metrics() const
    {
        return metrics_;
    }

    /** FNV-1a 64 (hex) over every simulated statistic, per seed. */
    std::string digest;
    /** Human-readable lines (sample counts, per-point figures). */
    std::vector<std::string> notes;

  private:
    std::vector<std::pair<std::string, double>> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Layer spans of a traced run, kept in memory and written as Chrome
 * trace events at exit. Each span has a name, start, duration and the
 * span that was open when it began (its parent). A span is recorded
 * only while the recorder is active, so untraced passes of a traced
 * run and every untraced run read no extra clock.
 */
class Spans
{
  public:
    /** @p ev null: tracing off for the whole run. */
    explicit Spans(tcfill::obs::TraceEventWriter *ev);

    void setActive(bool on) { active_ = on && ev_ != nullptr; }
    tcfill::obs::TraceEventWriter *writer() const { return ev_; }

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(Spans &s, std::string_view name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Span index (valid only while the recorder is active). */
        std::size_t id() const { return id_; }

      private:
        Spans &s_;
        std::size_t id_;
        bool on_;
    };

    /**
     * Record an aggregated child of span @p parent: @p seconds of
     * self-profiler time with no single interval of its own. Such
     * children are laid end to end from their parent's start.
     * Returns the child's index (a parent for nested aggregates).
     */
    std::size_t aggregate(std::size_t parent, std::string name,
                          double seconds);

    /** Self-profiler rows of one call, as aggregated children. */
    void profilerChildren(std::size_t parent,
                          const tcfill::obs::HostProfiler &prof);

    /** Sum of durations / self times of every span named @p name. */
    double totalSeconds(std::string_view name) const;
    double selfSeconds(std::string_view name) const;

    /** Emit every span to the writer (pid 3, the benchmark track). */
    void write();

  private:
    struct Span
    {
        std::string name;
        std::size_t parent;
        double startUs;
        double durUs;
        double childUs = 0;     ///< direct children's durations
        double nextChildUs = 0; ///< layout cursor for aggregates
    };

    static constexpr std::size_t kNoParent = ~std::size_t(0);

    tcfill::obs::TraceEventWriter *ev_;
    bool active_ = false;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Time @p f; recorded as span @p name when the recorder is active. */
template <class F>
double
timed(Spans &spans, std::string_view name, F &&f)
{
    Spans::Scope scope(spans, name);
    const auto t0 = Clock::now();
    f();
    return secondsSince(t0);
}

/**
 * Run measured rounds until @p o.seconds have passed, at least one
 * untraced: `round(traced)` returns one round's record and
 * `between()` runs after each. A traced run alternates untraced and
 * traced rounds, with at least one of each; the span recorder is
 * active for traced rounds and what follows them.
 */
template <class Round, class Between>
auto
runRounds(const Options &o, Spans &spans, Round &&round,
          Between &&between)
{
    std::vector<decltype(round(false))> rounds;
    std::size_t traced_n = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(o.seconds);
    while (rounds.size() == traced_n || (o.trace && traced_n == 0) ||
           Clock::now() < deadline) {
        const bool traced = o.trace && rounds.size() % 2 == 1;
        spans.setActive(traced);
        rounds.push_back(round(traced));
        between();
        spans.setActive(false);
        traced_n += traced;
    }
    return rounds;
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** The @p q quantile (0..1, nearest rank) of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

double geomean(const std::vector<double> &v);


/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Wall seconds of building @p names at @p scale into @p progs. */
double buildPrograms(const std::vector<std::string> &names, unsigned scale,
                     Spans &spans, std::vector<tcfill::Program> &progs);

/** Functional instruction counts, timed into arch.step_insts_per_s. */
std::vector<tcfill::InstSeqNum>
functionalCounts(const std::vector<tcfill::Program> &progs, Spans &spans,
                 Report &rep);

/**
 * hit_p50_us / hit_p99_us of re-asking a workload's own answers from
 * a local result store. Each batch() times kHitBatch round-robin
 * get() + parse calls, scales them by a HostRef factor and checks
 * every record; report() gives the median batch's percentiles.
 */
class HitProbe
{
  public:
    /** Open a fresh store in @p dir and put every (key, record). */
    HitProbe(const std::string &dir,
             std::vector<std::pair<std::string, std::string>> records,
             Report &rep);
    ~HitProbe();
    HitProbe(const HitProbe &) = delete;
    HitProbe &operator=(const HitProbe &) = delete;

    void batch(Spans &spans, double factor);
    void report(Report &rep) const;

  private:
    std::vector<std::pair<std::string, std::string>> records_;
    std::unique_ptr<tcfill::service::ResultStore> store_;
    std::vector<double> p50_, p99_;
    std::uint64_t bad_ = 0;
};

/** Fisher-Yates shuffle driven by the workload seed's generator. */
template <class T, class Rng>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// ---- the four workloads ----------------------------------------------

/** tc-hot (@p hot) or tc-thrash: the suite through Processor::run. */
Report runTraceCache(const Options &o, bool hot, Spans &spans);

/** sampled: tracefile::runSampled on long runs. */
Report runSampledWorkload(const Options &o, Spans &spans);

/** svc-mixed: an in-process tcfilld and one closed-loop client. */
Report runService(const Options &o, Spans &spans);

/** Regenerate the sampled workload's pinned full-run reference. */
int makeSampleReference(const std::string &path);

} // namespace tcbench

#endif // TCBENCH_BENCH_HH
