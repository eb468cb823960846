/**
 * @file
 * Register rename state for the timing model: maps each architectural
 * register to the in-flight producer of its newest value (or to the
 * committed register file). Register-move instructions execute here
 * by aliasing the destination mapping to the source mapping (paper
 * §4.2); recovery rebuilds the table from the surviving window, which
 * is the timing-model equivalent of checkpoint repair. An entry names
 * its producer (an unsealed Operand) until the producer retires; the
 * retire seals every entry still naming it, so the table never names
 * a freed instruction (DESIGN.md §13).
 */

#ifndef TCFILL_UARCH_RENAME_HH
#define TCFILL_UARCH_RENAME_HH

#include <array>
#include <deque>

#include "common/stats.hh"
#include "uarch/dyn_inst.hh"

namespace tcfill
{

/** The architectural-register mapping table. */
class RenameTable
{
  public:
    RenameTable();

    /** Current mapping of @p r as a source operand. R0 is ready. */
    Operand read(RegIndex r) const;

    /** Map @p r to in-flight producer @p producer. */
    void write(RegIndex r, DynInst &producer);

    /**
     * Execute a register move: alias the destination's mapping to the
     * operand the move copies (an in-flight producer or a sealed
     * value). A copied producer is flagged aliasMapped.
     */
    void alias(RegIndex dest, const Operand &src);

    /**
     * @p di is retiring: seal every entry that still names it to its
     * completion cycle and FU. O(1) through its destination's entry,
     * unless an alias copied it (aliasMapped); then all entries.
     */
    void
    sealRetired(const DynInst &di)
    {
        if (di.aliasMapped) {
            for (Operand &op : map_) {
                if (op.names(di))
                    op.seal(di);
            }
            return;
        }
        const RegIndex r = di.inst.dest;
        if (r < kNumArchRegs && map_[r].names(di))
            map_[r].seal(di);
    }

    /** Reset all mappings to the committed register file. */
    void reset();

    /**
     * Checkpoint-repair equivalent: rebuild mappings by replaying the
     * destination updates of all surviving (non-squashed) in-flight
     * instructions, oldest first. Squashed instructions in @p window
     * are skipped; retired values are assumed committed.
     */
    void rebuild(const std::deque<DynInst *> &window);

    /** Register "rename.*" activity counters with @p group. */
    void regStats(stats::Group &group);

  private:
    std::array<Operand, kNumArchRegs> map_;

    // Activity counters (observational only). reads_ is mutable so
    // the logically-const read() can count lookups.
    mutable stats::Counter reads_;
    stats::Counter writes_;
    stats::Counter aliases_;
    stats::Counter rebuilds_;
};

} // namespace tcfill

#endif // TCFILL_UARCH_RENAME_HH
