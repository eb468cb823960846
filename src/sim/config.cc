#include "sim/config.hh"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>

#include "pipeline/retire_unit.hh"

namespace tcfill
{

namespace
{

/**
 * Budgets for the longest wait the window's head can see: a load
 * that misses both cache levels behind a window of queued memory-bus
 * transfers, whose result then crosses clusters,
 *   l2Latency + memLatency + windowCap * memBusOccupancy
 *     + crossClusterDelay.
 * The head may first have waited as long for its own instruction
 * fetch, so twice the budgets must stay inside the retire unit's
 * deadlock window; a longer wait would panic a machine that works.
 */
constexpr Cycle kMaxLatency = 10'000;
constexpr Cycle kMaxBusBacklog = 50'000;
static_assert(2 * (3 * kMaxLatency + kMaxBusBacklog) <
              pipeline::RetireUnit::kDeadlockWindow);

/**
 * The timeline keeps one row per statsInterval instructions: an
 * interval is at least kMinStatsInterval long, and a capped run
 * records at most kMaxStatsIntervals rows.
 */
constexpr InstSeqNum kMinStatsInterval = 100;
constexpr InstSeqNum kMaxStatsIntervals = 1 << 16;

} // namespace

std::string
SimConfig::check() const
{
    const std::pair<const char *, unsigned> positive[] = {
        {"config: fetchWidth", fetchWidth},
        {"config: fetchQueueLines", fetchQueueLines},
        {"config: retireWidth", retireWidth},
        {"config: windowCap", windowCap},
        {"config: rasDepth", rasDepth},
    };
    for (const auto &[knob, value] : positive) {
        if (value == 0)
            return std::string(knob) + " must be positive";
    }
    // What a machine may hold: 128x the default return stack, 256x
    // the default fetch queue and 128x the default window.
    const std::tuple<const char *, unsigned, unsigned> bounded[] = {
        {"config: rasDepth", rasDepth, 4096},
        {"config: fetchQueueLines", fetchQueueLines, 1024},
        {"config: windowCap", windowCap, 65536},
    };
    for (const auto &[knob, value, most] : bounded) {
        if (value > most)
            return std::string(knob) + " must be at most " +
                std::to_string(most);
    }
    if (statsInterval != 0 && statsInterval < kMinStatsInterval)
        return "config: statsInterval must be 0 or at least " +
            std::to_string(kMinStatsInterval) + " instructions";
    if (statsInterval != 0 && maxInsts / statsInterval > kMaxStatsIntervals)
        return "config: statsInterval must be at least maxInsts / " +
            std::to_string(kMaxStatsIntervals) + " (one timeline row "
            "per interval)";

    const std::pair<const char *, std::string> parts[] = {
        {"config.fill", fill.check()},
        {"config.fill.policy", fill.policy.check()},
        {"config.tcache", tcache.check()},
        {"config.mem.l1i", mem.l1i.check()},
        {"config.mem.l1d", mem.l1d.check()},
        {"config.mem.l2", mem.l2.check()},
        {"config.bpred", bpred.check()},
        {"config.bias", bias.check()},
        {"config.core", core.check()},
    };
    for (const auto &[path, err] : parts) {
        if (!err.empty())
            return std::string(path) + ": " + err;
    }

    const std::pair<const char *, Cycle> latencies[] = {
        {"config.mem: l2Latency", mem.l2Latency},
        {"config.mem: memLatency", mem.memLatency},
        {"config.core: crossClusterDelay", core.crossClusterDelay},
    };
    for (const auto &[knob, cycles] : latencies) {
        if (cycles > kMaxLatency)
            return std::string(knob) + " must be at most " +
                std::to_string(kMaxLatency) + " cycles";
    }
    if (mem.memBusOccupancy > kMaxBusBacklog / windowCap)
        return "config.mem: memBusOccupancy must be at most " +
            std::to_string(kMaxBusBacklog) + " / windowCap (" +
            std::to_string(kMaxBusBacklog / windowCap) + " cycles)";

    // Dispatch moves a whole fetch line into the window at once, so
    // the window must hold the longest line: a trace segment, or an
    // I-cache block of at most fetchWidth 4-byte instructions that
    // stops at the end of its cache line.
    const std::uint64_t block = std::min<std::uint64_t>(
        fetchWidth, std::max<std::uint64_t>(1, mem.l1i.lineBytes / 4));
    const std::uint64_t longest =
        useTraceCache ? std::max<std::uint64_t>(block, fill.maxInsts)
                      : block;
    if (windowCap < longest)
        return "config: windowCap must hold the longest fetch line (" +
            std::to_string(longest) + " instructions)";
    // A trace-cache line issues each instruction to the functional
    // unit its slot names.
    if (useTraceCache &&
        std::uint64_t{core.numClusters} * core.fusPerCluster <
            kSegmentMaxInsts) {
        return "config.core: numClusters * fusPerCluster must be at "
               "least " + std::to_string(kSegmentMaxInsts) +
            " with the trace cache on (one unit per trace-line slot)";
    }
    return {};
}

} // namespace tcfill
