/**
 * @file
 * Shared harness for the paper-reproduction benchmarks: standard
 * configurations, per-workload runs routed through the process-wide
 * SimRunner (parallel execution + result/program caching), and
 * paper-style table printing.
 */

#ifndef TCFILL_BENCH_COMMON_HH
#define TCFILL_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "sim/processor.hh"
#include "sim/result.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcfill::bench
{

/** Instruction budget per benchmark run (keeps sweeps tractable). */
inline constexpr InstSeqNum kRunInsts = 220'000;

/** Workload scale used by all paper benches. */
inline constexpr unsigned kScale = 1;

/** The paper's baseline machine (§3), no fill-unit optimizations. */
SimConfig baselineConfig();

/** Baseline plus the given optimization set (fill latency 5). */
SimConfig optConfig(const FillOptimizations &opts,
                    Cycle fill_latency = 5);

/**
 * The process-wide simulation runner all benches share. Thread count
 * defaults to the host's cores; override with TCFILL_THREADS.
 */
SimRunner &runner();

/**
 * Run one (workload, config) pair at the standard budget. Served
 * from the SimRunner result cache; the first request per distinct
 * point simulates, every later one is a cache hit. The active
 * Session records the result.
 */
SimResult run(const workloads::Workload &w, SimConfig cfg);

/**
 * Warm the cache in parallel: enqueue every suite workload under each
 * of @p cfgs. Call once at driver start so the subsequent run() loop
 * prints results in order while the pool simulates ahead.
 */
void prefetchSuite(const std::vector<SimConfig> &cfgs);

/** Percentage string for an IPC ratio, e.g. "+17.3%". */
std::string pctGain(double base_ipc, double opt_ipc);

/**
 * Per-driver observability session. Construct first thing in main():
 * parses and strips the shared observability flags from argv so the
 * driver's own parsing (if any) never sees them, records every result
 * bench::run() returns, and at destruction writes the stats JSON
 * (schema tcfill-stats-v1, host sections included — bench output is a
 * perf trajectory, not a determinism artifact) and finishes the
 * progress line.
 *
 * Flags / environment:
 *   --stats-json=FILE | --stats-json FILE   (env TCFILL_STATS_JSON)
 *   --progress                              (env TCFILL_PROGRESS=1)
 */
class Session
{
  public:
    /** Strips recognized flags from @p argc / @p argv in place. */
    Session(int &argc, char **argv);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;
};

} // namespace tcfill::bench

#endif // TCFILL_BENCH_COMMON_HH
