/**
 * @file
 * The rename/dispatch stage of the decomposed pipeline (DESIGN.md
 * §10): pops the oldest ready line from the FetchLatch, checks window
 * and reservation-station capacity, resolves source operands against
 * the RenameTable (explicit intra-line dependency marking makes trace
 * lines rename in parallel; I-cache lines rename serially), executes
 * marked moves by aliasing at rename (paper §4.2), inserts everything
 * into the in-flight window, and inserts each instruction that needs
 * a reservation station into the ExecCore as it renames it (marked
 * moves and elided dead writes complete in rename).
 *
 * Owns the RenameTable; recovery borrows it (renameTable()) for
 * checkpoint-repair rebuilds.
 */

#ifndef TCFILL_PIPELINE_DISPATCH_RENAME_HH
#define TCFILL_PIPELINE_DISPATCH_RENAME_HH

#include "pipeline/latches.hh"
#include "pipeline/stage.hh"
#include "sim/config.hh"
#include "uarch/exec_core.hh"
#include "uarch/pipe_hooks.hh"
#include "uarch/rename.hh"

namespace tcfill::pipeline
{

/** Everything the dispatch stage sees of the rest of the machine. */
struct DispatchEnv
{
    const SimConfig &cfg;
    FetchLatch &in;
    InstWindow &window;
    ExecCore &core;
};

/** Rename (+ move execution at rename) and window insertion. */
class DispatchRename : public Stage
{
  public:
    explicit DispatchRename(const DispatchEnv &env);

    /** One dispatch cycle: rename at most one fetched line. */
    void tick(Cycle now);

    /** The mapping table (recovery rebuilds it after a squash). */
    RenameTable &renameTable() { return rename_; }

    void regStats(stats::Group &master);

  private:
    void renameTraceLine(FetchLine &line, Cycle now);
    void renameSerialLine(FetchLine &line, Cycle now);

    const SimConfig &cfg_;
    FetchLatch &in_;
    InstWindow &window_;
    ExecCore &core_;

    RenameTable rename_;

    stats::Counter dispatched_;
    stats::Counter lines_;
    stats::Counter insts_;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_DISPATCH_RENAME_HH
