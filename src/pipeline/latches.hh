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
 *   FetchLatch       FetchEngine W, DispatchRename R/W,
 *                    RecoveryController R (empty at a mispredict)
 *   InstWindow       DispatchRename W, RetireUnit R/W,
 *                    RecoveryController R/W (squash/rescue)
 *
 * Ownership (DESIGN.md §13): a fetched instruction belongs to its
 * FetchLine until dispatch moves it into the InstWindow, which owns
 * it until its slot pops. The holder that lets go of an instruction
 * for good frees it (freeDynInst): the retire unit as it pops a slot,
 * the Processor at teardown. No latch line is ever dropped: fetch
 * stalls on a mispredicted branch in the line build that fetches it,
 * so the latch is empty when the mispredict resolves. FetchControl
 * names its stall instructions by seq.
 */

#ifndef TCFILL_PIPELINE_LATCHES_HH
#define TCFILL_PIPELINE_LATCHES_HH

#include <algorithm>
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
    /** Owned until dispatch moves them into the window, oldest first. */
    std::vector<DynInst *> insts;
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
    /** Seq of the unresolved mispredict gating fetch; 0 = none. */
    InstSeqNum stallBranch = 0;
    /** Seq of the serializing instruction gating fetch; 0 = none. */
    InstSeqNum stallSerialize = 0;

    bool stalled() const { return stallBranch || stallSerialize; }
};

/**
 * The in-flight window, fetch order (dispatch in, retire out). It
 * owns every instruction in it, and its seqs strictly increase from
 * front to back.
 */
struct InstWindow
{
    std::deque<DynInst *> insts;

    bool empty() const { return insts.empty(); }
    std::size_t size() const { return insts.size(); }

    /** Index of the oldest slot whose seq is at least @p seq. */
    std::size_t
    lowerBound(InstSeqNum seq) const
    {
        auto it = std::partition_point(
            insts.begin(), insts.end(),
            [seq](const DynInst *di) { return di->seq < seq; });
        return static_cast<std::size_t>(it - insts.begin());
    }

    /** The instruction with @p seq; nullptr once its slot popped. */
    DynInst *
    find(InstSeqNum seq) const
    {
        const std::size_t i = lowerBound(seq);
        return i < insts.size() && insts[i]->seq == seq ? insts[i]
                                                        : nullptr;
    }
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_LATCHES_HH
