/**
 * @file
 * Design-space exploration: how the value of the fill-unit
 * optimizations shifts as the machine changes — cross-cluster bypass
 * latency (placement's lever) and trace-cache capacity. The kind of
 * what-if study the simulator exists for.
 *
 * All simulation points are enqueued on a SimRunner pool up front and
 * execute concurrently; the print loops then collect the futures in
 * sweep order, so the output is identical to the old serial version.
 *
 * Usage: design_space [workload]
 */

#include <cstdio>
#include <future>
#include <iostream>
#include <vector>

#include "sim/runner.hh"
#include "trace/tcache.hh"
#include "workloads/suite.hh"

using namespace tcfill;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "perl";
    SimRunner pool;

    std::cout << "design space study on '" << name << "' ("
              << pool.threads() << " worker threads)\n\n";

    // ---- enqueue both sweeps --------------------------------------
    const Cycle delays[] = {0, 1, 2, 4};
    std::vector<std::shared_future<SimResult>> delay_base;
    std::vector<std::shared_future<SimResult>> delay_opt;
    for (Cycle delay : delays) {
        SimConfig base = SimConfig::withOpts(FillOptimizations::none());
        base.core.crossClusterDelay = delay;
        base.maxInsts = 150'000;
        SimConfig opt = SimConfig::withOpts(FillOptimizations::all());
        opt.core.crossClusterDelay = delay;
        opt.maxInsts = 150'000;
        delay_base.push_back(pool.submit(name, base));
        delay_opt.push_back(pool.submit(name, opt));
    }

    const std::size_t capacities[] = {128, 512, 2048, 8192};
    std::vector<SimConfig> cap_cfgs;
    std::vector<std::shared_future<SimResult>> cap_runs;
    for (std::size_t entries : capacities) {
        SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
        cfg.tcache.entries = entries;
        cfg.maxInsts = 150'000;
        cap_cfgs.push_back(cfg);
        cap_runs.push_back(pool.submit(name, cfg));
    }

    // ---- sweep 1: cross-cluster bypass latency --------------------
    std::cout << "bypass latency sweep (placement's payoff grows "
                 "with the penalty):\n";
    std::printf("  %-8s %-10s %-10s %s\n", "delay", "base IPC",
                "all-opt", "gain");
    for (std::size_t i = 0; i < std::size(delays); ++i) {
        double b = delay_base[i].get().ipc();
        double o = delay_opt[i].get().ipc();
        std::printf("  %-8llu %-10.3f %-10.3f %+5.1f%%\n",
                    static_cast<unsigned long long>(delays[i]), b, o,
                    (o / b - 1.0) * 100.0);
    }

    // ---- sweep 2: trace cache capacity ------------------------------
    std::cout << "\ntrace cache capacity sweep (all opts on):\n";
    std::printf("  %-10s %-10s %-10s %s\n", "entries", "IPC",
                "hit rate", "storage");
    for (std::size_t i = 0; i < std::size(capacities); ++i) {
        SimResult r = cap_runs[i].get();
        std::printf("  %-10zu %-10.3f %-10.3f %zu KB\n",
                    capacities[i], r.ipc(), r.tcHitRate(),
                    cap_cfgs[i].tcacheStorageBits() / 8 / 1024);
    }
    return 0;
}
