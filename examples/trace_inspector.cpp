/**
 * @file
 * Trace inspector: runs a workload with all fill-unit optimizations
 * enabled, then dumps the hottest resident trace segments with their
 * optimization metadata — marked moves, rewritten (reassociated)
 * immediates, scaled operands and cluster placement. A window into
 * what the fill unit actually did to the code.
 *
 * Usage: trace_inspector [workload] [max_segments]
 */

#include <iostream>
#include <string>

#include "common/parse.hh"
#include "sim/processor.hh"
#include "workloads/suite.hh"

using namespace tcfill;

namespace
{

void
dumpSegment(const TraceSegment &seg)
{
    std::cout << "segment @0x" << std::hex << seg.startPc << std::dec
              << "  (" << seg.size() << " insts, " << seg.numBlocks
              << " blocks, next=0x" << std::hex << seg.nextPc
              << std::dec << ")\n";
    for (const auto &ti : seg.insts) {
        std::cout << "  [" << unsigned(ti.origIdx) << "->slot "
                  << unsigned(ti.slot) << " c"
                  << unsigned(ti.slot) / 4 << "] "
                  << disassemble(ti.inst, ti.pc);
        if (ti.isMove)
            std::cout << "   ; MOVE (renames to " << regName(ti.moveSrc)
                      << ")";
        if (ti.reassociated)
            std::cout << "   ; REASSOCIATED";
        if (ti.hasScale())
            std::cout << "   ; SCALED src" << unsigned(ti.scaledSrcIdx)
                      << " <<" << unsigned(ti.scaleAmt);
        if (ti.promoted)
            std::cout << "   ; PROMOTED("
                      << (ti.promotedDir ? "T" : "NT") << ")";
        std::cout << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "m88ksim";
    unsigned max_segs = 6;
    if (argc > 2) {
        const std::string why = readUnsigned(argv[2], max_segs);
        if (!why.empty()) {
            std::cerr << "argument 'max_segments' " << why << "\n"
                      << "usage: trace_inspector [workload] [max_segments]\n";
            return 2;
        }
    }

    Program prog = workloads::build(name, 1);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.maxInsts = 60'000;

    Processor proc(prog, cfg);
    SimResult res = proc.run();

    std::cout << "ran " << res.retired << " instructions of "
              << prog.name << " (IPC " << res.ipc() << ", "
              << res.segmentsBuilt << " segments built, hit rate "
              << res.tcHitRate() << ")\n\n";

    // Show segments containing at least one transformation first.
    unsigned shown = 0;
    proc.traceCache().forEach([&](const TraceSegment &seg) {
        if (shown >= max_segs)
            return;
        bool interesting = false;
        for (const auto &ti : seg.insts) {
            if (ti.isMove || ti.reassociated || ti.hasScale()) {
                interesting = true;
                break;
            }
        }
        if (interesting) {
            dumpSegment(seg);
            std::cout << "\n";
            ++shown;
        }
    });
    if (shown == 0)
        std::cout << "(no transformed segments resident)\n";
    return 0;
}
