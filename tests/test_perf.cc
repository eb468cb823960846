/**
 * @file
 * Host-speed-independent performance gates (ctest label "perf", run
 * serially). Each gate times two variants of the same work on the same
 * host in the same process and bounds their ratio, so a slower or
 * busier machine moves both sides alike. Absolute throughput is
 * tcbench's job (tcbench/README.md), not a test's.
 *
 *  - Timeline collection on vs off: under 3% overhead (DESIGN.md §15).
 *  - Uniform-map oracle policy vs static: under 5% overhead, and the
 *    oracle must simulate the identical machine (DESIGN.md §16).
 *  - Store-served service sweep vs the same sweep simulated: at least
 *    10x faster (DESIGN.md §17).
 *
 * The overhead gates run kPairs interleaved pairs, alternating which
 * side goes first, and gate the median of the per-pair time ratios:
 * host drift within a pair cancels, and the median shrugs off the
 * pairs a scheduler hiccup lands in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fill/policy.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "sim/processor.hh"
#include "workloads/suite.hh"

namespace tcfill
{
namespace
{

using Clock = std::chrono::steady_clock;

// The seam gate's real overhead (~2.5%) sits closest to its bound:
// at 61 pairs, about one run in sixty on a shared 4-vCPU VM read
// past 5%.
constexpr int kPairs = 101;
constexpr InstSeqNum kGateInsts = 100'000;

SimConfig
gateConfig()
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.maxInsts = kGateInsts;
    return cfg;
}

/**
 * Median over kPairs interleaved compress runs of
 * hostSeconds(@p variant) / hostSeconds(@p base), minus one. Both
 * configurations must simulate the same machine: any retired/cycles
 * difference fails the test.
 */
double
medianOverhead(const SimConfig &base, const SimConfig &variant)
{
    const Program prog = workloads::build("compress", 1);
    simulate(prog, base);       // warm-up: page cache, branch history
    simulate(prog, variant);

    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
        SimResult a, b;
        if (i % 2 == 0) {
            a = simulate(prog, base);
            b = simulate(prog, variant);
        } else {
            b = simulate(prog, variant);
            a = simulate(prog, base);
        }
        EXPECT_EQ(a.retired, b.retired) << "pair " << i;
        EXPECT_EQ(a.cycles, b.cycles) << "pair " << i;
        ratios.push_back(b.hostSeconds / a.hostSeconds);
    }
    auto mid = ratios.begin() + kPairs / 2;
    std::nth_element(ratios.begin(), mid, ratios.end());
    return *mid - 1.0;
}

TEST(PerfGate, TimelineOverheadUnder3Percent)
{
    const SimConfig off = gateConfig();
    SimConfig on = off;
    on.statsInterval = 5'000;
    const double overhead = medianOverhead(off, on);
    std::printf("timeline overhead: %+.2f%% (gate 3%%, median of %d "
                "pairs x %llu insts)\n",
                overhead * 100.0, kPairs,
                static_cast<unsigned long long>(kGateInsts));
    EXPECT_LT(overhead, 0.03);
}

TEST(PerfGate, PolicySeamOverheadUnder5Percent)
{
    SimConfig st = gateConfig();
    st.fill.policy.windowInsts = 10'000;
    // A uniform map runs the whole adaptive machinery (signals, BBV
    // tracker, window closes) without ever changing the mask.
    SimConfig oracle = st;
    oracle.fill.policy.kind = FillPolicyKind::Oracle;
    oracle.fill.policy.oracleMap = "*=" + std::to_string(kPassMaskAll);
    const double overhead = medianOverhead(st, oracle);
    std::printf("policy seam overhead: %+.2f%% (gate 5%%, median of %d "
                "pairs x %llu insts)\n",
                overhead * 100.0, kPairs,
                static_cast<unsigned long long>(kGateInsts));
    EXPECT_LT(overhead, 0.05);
}

/** {compress, li} x 8 pass masks x fill latency {1, 5}. */
std::vector<service::ServiceClient::Point>
sweepPoints()
{
    const PassMask kMasks[] = {kPassMaskNone,    kPassMarkMoves,
                               kPassReassociate, kPassScaledAdds,
                               kPassPlacement,   kPassDeadCodeElim,
                               kPassMaskAll,     kPassMaskExtended};
    std::vector<service::ServiceClient::Point> points;
    for (const char *w : {"compress", "li"}) {
        for (PassMask mask : kMasks) {
            for (Cycle lat : {Cycle(1), Cycle(5)}) {
                service::ServiceClient::Point p;
                p.workload = w;
                p.scale = 1;
                p.config = SimConfig::withOpts(optsFromPassMask(mask), lat);
                p.config.name =
                    passMaskName(mask) + "+lat" + std::to_string(lat);
                p.config.maxInsts = 20'000;
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

/** Seconds one sweep takes; every point must come from @p source. */
double
timedSweep(service::ServiceClient &client,
           const std::vector<service::ServiceClient::Point> &points,
           const char *source)
{
    std::vector<SimResult> results;
    service::ServiceClient::SweepSummary summary;
    std::string err;
    const auto t0 = Clock::now();
    EXPECT_TRUE(client.sweep(points, results, summary, err)) << err;
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_EQ(results.size(), points.size());
    for (const SimResult &r : results)
        EXPECT_EQ(r.cacheHit, source) << r.workload << "/" << r.config;
    return seconds;
}

TEST(PerfGate, ServiceWarmSweepAtLeast10xCold)
{
    const std::string dir = ::testing::TempDir() + "tcfill_perf_service";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    service::DaemonOptions opts;
    opts.socketPath = dir + "/sock";
    opts.storeDir = dir + "/store";
    opts.shards = 2;
    opts.shardThreads = 1;
    const auto points = sweepPoints();
    // start() forks the shard workers, so it must run before this
    // process creates any thread (the serve loop included).
    service::Daemon daemon(opts);
    std::string err;
    ASSERT_TRUE(daemon.start(err)) << err;
    std::thread server([&daemon] { daemon.serve(); });

    service::ServiceClient client;
    if (!client.connect(opts.socketPath, err)) {
        ADD_FAILURE() << err;
    } else {
        const double cold = timedSweep(client, points, "computed");
        constexpr int kWarmReps = 5;
        double warm = 0;
        for (int rep = 0; rep < kWarmReps; ++rep)
            warm += timedSweep(client, points, "store") / kWarmReps;
        std::printf("service warm/cold: %.1fx (gate 10x; cold %.1f ms, "
                    "warm %.2f ms, %zu points)\n",
                    cold / warm, cold * 1e3, warm * 1e3, points.size());
        EXPECT_GE(cold / warm, 10.0);
        client.close();
    }

    daemon.requestShutdown();
    server.join();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace tcfill
