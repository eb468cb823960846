/**
 * @file
 * Explicit inter-stage latches for the decomposed pipeline
 * (DESIGN.md §10). Each struct is a named piece of shared state owned
 * by the Processor composition root and constructor-injected into
 * exactly the stages that read or write it — the stages themselves
 * share no members. The latches carry no behavior beyond trivial
 * bookkeeping, so the cycle-level semantics live entirely in the
 * stage classes.
 *
 * Data-flow summary (W = writes, R = reads):
 *
 *   FetchControl     FetchEngine W/R, RecoveryController W (redirect),
 *                    RetireUnit W (serialize release)
 *   FetchLatch       FetchEngine W, DispatchRename R,
 *                    RecoveryController W (squash trim)
 *   InstWindow       DispatchRename W, RetireUnit R/W,
 *                    RecoveryController R/W (squash/rescue)
 */

#ifndef TCFILL_PIPELINE_LATCHES_HH
#define TCFILL_PIPELINE_LATCHES_HH

#include <deque>
#include <vector>

#include "common/types.hh"
#include "uarch/dyn_inst.hh"

namespace tcfill::pipeline
{

/** One fetched line (trace-cache segment or I-cache block). */
struct FetchLine
{
    Cycle readyCycle = 0;
    std::vector<DynInstPtr> insts;
    bool fromTrace = false;
};

/** Fetch → dispatch latch: lines waiting to rename and issue. */
struct FetchLatch
{
    std::deque<FetchLine> lines;

    bool empty() const { return lines.empty(); }
    std::size_t size() const { return lines.size(); }
};

/**
 * Fetch-steering state. The PC and availability cycle are advanced by
 * the fetch engine; misprediction recovery redirects the PC and
 * releases the branch stall, and retirement releases the serialize
 * stall.
 */
struct FetchControl
{
    Addr pc = 0;
    Cycle avail = 0;
    DynInstPtr stallBranch;     ///< unresolved mispredict gating fetch
    DynInstPtr stallSerialize;  ///< serializing inst gating fetch

    bool stalled() const { return stallBranch || stallSerialize; }
};

/** The in-flight window, fetch order (dispatch in, retire out). */
struct InstWindow
{
    std::deque<DynInstPtr> insts;

    bool empty() const { return insts.empty(); }
    std::size_t size() const { return insts.size(); }
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_LATCHES_HH
