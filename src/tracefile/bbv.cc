#include "tracefile/bbv.hh"

#include <ostream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace tcfill::tracefile
{

BbvProfiler::BbvProfiler(InstSeqNum interval) : interval_(interval)
{
    panic_if(interval_ == 0, "BBV interval must be positive");
}

void
BbvProfiler::cutInterval()
{
    // Cut exactly at the interval length; a block straddling the
    // boundary contributes its halves to both intervals under the
    // same start-PC key.
    intervals_.push_back({cur_insts_, blocks_.cut()});
    cur_insts_ = 0;
}

void
BbvProfiler::finish()
{
    if (finished_)
        return;
    if (cur_insts_ > 0)
        cutInterval();
    finished_ = true;
}

std::vector<BbvInterval>
profileBbv(Executor &exec, InstSeqNum interval, InstSeqNum maxInsts)
{
    BbvProfiler prof(interval);
    InstSeqNum n = 0;
    while (!exec.halted() && (maxInsts == 0 || n < maxInsts)) {
        // fastStep() advances the PC; read it first (consume keys the
        // block on the committed instruction's own PC).
        const Addr pc = exec.state().pc;
        prof.consume(pc, exec.fastStep());
        ++n;
    }
    prof.finish();
    return prof.intervals();
}

void
writeBbvJson(std::ostream &os, const std::string &workload,
             InstSeqNum interval,
             const std::vector<BbvInterval> &intervals)
{
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "tcfill-bbv-v1");
    w.field("workload", workload);
    w.field("intervalLength", static_cast<std::uint64_t>(interval));
    w.field("intervals", static_cast<std::uint64_t>(intervals.size()));
    w.beginArray("vectors");
    for (const BbvInterval &iv : intervals) {
        w.beginObject();
        w.field("insts", static_cast<std::uint64_t>(iv.insts));
        w.beginObject("blocks");
        for (const auto &[pc, count] : iv.blocks) {
            w.field(std::to_string(pc),
                    static_cast<std::uint64_t>(count));
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.finish();
}

} // namespace tcfill::tracefile
