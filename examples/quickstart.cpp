/**
 * @file
 * Quickstart: build one benchmark program, run it on the baseline
 * trace-cache processor and on the fully optimized fill unit, and
 * print the comparison — the 60-second tour of the library.
 *
 * Usage: quickstart [workload] [scale]
 */

#include <iostream>
#include <string>

#include "common/parse.hh"
#include "sim/processor.hh"
#include "workloads/suite.hh"

using namespace tcfill;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "compress";
    unsigned scale = 1;
    if (argc > 2) {
        const std::string why = readUnsigned(argv[2], scale);
        if (!why.empty()) {
            std::cerr << "argument 'scale' " << why << "\n"
                      << "usage: quickstart [workload] [scale]\n";
            return 2;
        }
    }

    Program prog = workloads::build(name, scale);
    std::cout << "workload: " << prog.name << " ("
              << prog.text.size() << " static instructions)\n";

    // Baseline: trace cache + fill unit, no dynamic optimizations.
    SimConfig base = SimConfig::withOpts(FillOptimizations::none());
    base.name = "baseline";
    SimResult rb = simulate(prog, base);
    rb.dump(std::cout);

    // All four optimizations, 5-cycle fill latency (paper default).
    SimConfig opt = SimConfig::withOpts(FillOptimizations::all());
    opt.name = "fill-optimized";
    SimResult ro = simulate(prog, opt);
    ro.dump(std::cout);

    double speedup = rb.ipc() > 0 ? ro.ipc() / rb.ipc() : 0.0;
    std::cout << "\nIPC " << rb.ipc() << " -> " << ro.ipc() << "  ("
              << (speedup - 1.0) * 100.0 << "% improvement)\n";
    return 0;
}
