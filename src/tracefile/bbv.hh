/**
 * @file
 * Basic-block vector (BBV) profiling of the committed instruction
 * stream, in the SimPoint style: execution is cut into fixed-length
 * intervals (by committed instruction count) and each interval is
 * summarized by how many instructions it spent in each basic block.
 * Intervals with similar vectors execute similar code, which is what
 * the k-means selector in sample.hh exploits to pick a few
 * representative intervals instead of timing the whole run.
 *
 * The profiler consumes the committed stream one (PC, ends-block)
 * pair at a time, off a fast functional Executor (profileBbv, and the
 * sampler's profiling pass): no timing model, no ExecRecord, millions
 * of instructions per second.
 */

#ifndef TCFILL_TRACEFILE_BBV_HH
#define TCFILL_TRACEFILE_BBV_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "arch/executor.hh"
#include "common/kmeans.hh"
#include "common/logging.hh"

namespace tcfill::tracefile
{

/**
 * One profiling interval: instruction counts per basic block. Blocks
 * are keyed by their start PC (the target of the previous control
 * transfer); counts are instructions executed in the block, so every
 * interval's counts sum to its `insts`.
 */
struct BbvInterval
{
    InstSeqNum insts = 0;
    std::map<Addr, std::uint64_t> blocks;
};

/** Streaming BBV profiler over committed records. */
class BbvProfiler
{
  public:
    /** @p interval is the interval length in committed instructions. */
    explicit BbvProfiler(InstSeqNum interval);

    /**
     * Account one committed instruction (instructions arrive in
     * order): @p pc is its PC and @p ends_block is
     * Executor::fastStep()'s return — a control transfer (taken or
     * not: SimPoint keys blocks on static extent) or a serializing
     * instruction. Inline: this runs once per committed instruction
     * of every profiling pass.
     */
    void
    consume(Addr pc, bool ends_block)
    {
        panic_if(finished_, "BbvProfiler::consume() after finish()");
        blocks_.note(pc, ends_block);
        ++total_;
        if (++cur_insts_ >= interval_)
            cutInterval();
    }

    /** Close the trailing partial interval (idempotent). */
    void finish();

    /** Completed intervals (call finish() first for the tail). */
    const std::vector<BbvInterval> &intervals() const
    {
        return intervals_;
    }

    /** Total instructions consumed. */
    InstSeqNum totalInsts() const { return total_; }

    InstSeqNum intervalLength() const { return interval_; }

  private:
    void cutInterval();

    InstSeqNum interval_;
    InstSeqNum total_ = 0;

    InstSeqNum cur_insts_ = 0;
    BbvCounter blocks_;
    std::vector<BbvInterval> intervals_;
    bool finished_ = false;
};

/**
 * Profile @p exec functionally to completion (or @p maxInsts
 * committed instructions when non-zero) via fastStep(), and return
 * the interval vectors.
 */
std::vector<BbvInterval> profileBbv(Executor &exec,
                                    InstSeqNum interval,
                                    InstSeqNum maxInsts = 0);

/**
 * Emit intervals as a tcfill-bbv-v1 JSON document (deterministic
 * bytes: intervals in order, blocks in ascending PC order).
 */
void writeBbvJson(std::ostream &os, const std::string &workload,
                  InstSeqNum interval,
                  const std::vector<BbvInterval> &intervals);

} // namespace tcfill::tracefile

#endif // TCFILL_TRACEFILE_BBV_HH
