#include "pipeline/dispatch_rename.hh"

#include <array>

#include "common/logging.hh"

namespace tcfill::pipeline
{

DispatchRename::DispatchRename(const DispatchEnv &env)
    : cfg_(env.cfg), in_(env.in), window_(env.window), core_(env.core)
{
}

void
DispatchRename::regStats(stats::Group &master)
{
    master.addCounter("issue.dispatched", dispatched_,
                      "instructions inserted into reservation stations");
    rename_.regStats(master);
    master.addCounter("dispatch.lines", lines_,
                      "fetched lines renamed");
    master.addCounter("dispatch.insts", insts_,
                      "instructions renamed");
}

void
DispatchRename::tick(Cycle now)
{
    if (in_.empty())
        return;
    FetchLine &line = in_.lines.front();
    if (now < line.readyCycle + 1)
        return;

    // Structural checks: window capacity and reservation stations.
    if (window_.size() + line.insts.size() > cfg_.windowCap)
        return;
    std::array<unsigned, 64> need{};
    for (const DynInst *di : line.insts) {
        if (!di->moveMarked && !di->elided)
            ++need[static_cast<unsigned>(di->fu) % 64];
    }
    for (unsigned fu = 0; fu < core_.numFus(); ++fu) {
        if (need[fu] > core_.rsFree(fu))
            return;
    }

    if (line.fromTrace)
        renameTraceLine(line, now);
    else
        renameSerialLine(line, now);

    ++lines_;
    in_.lines.pop_front();
}

void
DispatchRename::renameTraceLine(FetchLine &line, Cycle now)
{
    // Phase 1: resolve source operands. Trace lines read all live-ins
    // against the line-entry mapping (explicit dependency marking
    // makes parallel rename possible).
    for (DynInst *di : line.insts) {
        di->numSrcs = di->inst.numSrcs();
        for (unsigned k = 0; k < di->numSrcs; ++k) {
            std::int8_t d = di->lineDep[k];
            if (d >= 0) {
                DynInst &p = *line.insts[static_cast<std::size_t>(d)];
                di->src[k] =
                    p.moveMarked ? p.moveAlias : Operand::of(p);
            } else {
                di->src[k] = rename_.read(di->inst.srcReg(k));
            }
        }
        if (di->moveMarked) {
            std::int8_t d = di->moveSrcDep;
            if (d >= 0) {
                DynInst &p = *line.insts[static_cast<std::size_t>(d)];
                di->moveAlias =
                    p.moveMarked ? p.moveAlias : Operand::of(p);
            } else {
                di->moveAlias = rename_.read(di->moveSrcReg);
            }
        }
    }
    // Phase 2: apply destination mappings in program order.
    for (DynInst *di : line.insts) {
        di->issueCycle = now;
        tracePipe(tracer_, obs::PipeStage::Rename, *di, now);
        tracePipe(tracer_, obs::PipeStage::Issue, *di, now);
        if (di->elided) {
            // Dead write: completes at issue, maps nothing (its
            // same-region overwriter later in this line supplies
            // the register's next mapping).
            di->completeCycle = now;
            di->phase = InstPhase::Complete;
            tracePipe(tracer_, obs::PipeStage::Complete, *di, now);
        } else if (di->moveMarked) {
            di->completeCycle = now;
            di->phase = InstPhase::Complete;
            tracePipe(tracer_, obs::PipeStage::Complete, *di, now);
            // Sealed by its producer's completion, so a rebuild can
            // replay it after the producer retired.
            core_.subscribeAlias(*di);
            if (!di->inactive)
                rename_.alias(di->inst.dest, di->moveAlias);
            if (di->isBranch)
                panic("marked move cannot be a branch");
        } else {
            if (di->inst.hasDest() && !di->inactive)
                rename_.write(di->inst.dest, *di);
            core_.dispatch(*di);
            ++dispatched_;
        }
        // The line is discarded right after rename: the window takes
        // ownership.
        window_.insts.push_back(di);
        ++insts_;
    }
}

void
DispatchRename::renameSerialLine(FetchLine &line, Cycle now)
{
    for (DynInst *di : line.insts) {
        di->issueCycle = now;
        di->numSrcs = di->inst.numSrcs();
        for (unsigned k = 0; k < di->numSrcs; ++k)
            di->src[k] = rename_.read(di->inst.srcReg(k));
        tracePipe(tracer_, obs::PipeStage::Rename, *di, now);
        tracePipe(tracer_, obs::PipeStage::Issue, *di, now);
        if (di->inst.hasDest())
            rename_.write(di->inst.dest, *di);
        core_.dispatch(*di);
        ++dispatched_;
        window_.insts.push_back(di);
        ++insts_;
    }
}

} // namespace tcfill::pipeline
