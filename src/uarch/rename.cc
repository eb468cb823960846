#include "uarch/rename.hh"

namespace tcfill
{

RenameTable::RenameTable()
{
    reset();
}

Operand
RenameTable::read(RegIndex r) const
{
    if (r == kRegZero || r >= kNumArchRegs)
        return Operand{};
    ++reads_;
    return map_[r];
}

void
RenameTable::write(RegIndex r, DynInst &producer)
{
    if (r == kRegZero || r >= kNumArchRegs)
        return;
    ++writes_;
    map_[r] = Operand::of(producer);
}

void
RenameTable::alias(RegIndex dest, const Operand &src)
{
    if (dest == kRegZero || dest >= kNumArchRegs)
        return;
    ++aliases_;
    map_[dest] = src;
    if (!src.sealed())
        src.producer->aliasMapped = true;
}

void
RenameTable::reset()
{
    map_.fill(Operand{});
}

void
RenameTable::rebuild(const std::deque<DynInst *> &window)
{
    ++rebuilds_;
    reset();
    for (DynInst *di : window) {
        // Skip squashed work and instructions still inactive: an
        // inactive instruction never updated the table at issue (its
        // fate is unresolved), so replaying it here would let later
        // lines depend on work that may yet be discarded.
        if (di->squashed() || di->inactive || di->elided)
            continue;
        if (di->moveMarked) {
            alias(di->inst.dest, di->moveAlias);
        } else if (di->inst.hasDest()) {
            write(di->inst.dest, *di);
        }
    }
}

void
RenameTable::regStats(stats::Group &group)
{
    group.addCounter("rename.reads", reads_,
                     "source-operand mapping lookups");
    group.addCounter("rename.writes", writes_,
                     "destination mappings installed");
    group.addCounter("rename.aliases", aliases_,
                     "moves executed by aliasing in rename");
    group.addCounter("rename.rebuilds", rebuilds_,
                     "checkpoint-repair table rebuilds");
}

} // namespace tcfill
