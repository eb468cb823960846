/**
 * @file
 * Per-instruction pipeline lifecycle tracer (gem5/Kanata-style): the
 * timing model reports one event per stage an instruction passes
 * through (fetch, rename, issue, execute, complete, retire, squash),
 * stamped with the simulated cycle and the fill-unit pass annotations
 * carried by the trace-cache line (move-marked, reassociated, scaled,
 * elided). The fill unit additionally reports one event per finalized
 * segment.
 *
 * Gating: the hooks are always compiled in and runtime-gated on a
 * null tracer pointer (one predictable branch per event site).
 * Tracing is purely observational: enabling it never changes
 * simulated cycles or IPC.
 */

#ifndef TCFILL_OBS_PIPE_TRACE_HH
#define TCFILL_OBS_PIPE_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace tcfill::obs
{

/** Pipeline stages an instruction lifecycle event can report. */
enum class PipeStage : std::uint8_t
{
    Fetch,      ///< line built from the trace cache or I-cache
    Rename,     ///< source operands resolved against the rename table
    Issue,      ///< dispatched to a reservation station (or completed
                ///< in rename: marked moves and elided dead writes)
    Execute,    ///< selected by a functional unit
    Complete,   ///< result timestamp known (stamp is the completion
                ///< cycle, which may be later than the emission point)
    Retire,     ///< committed in order
    Squash,     ///< cancelled by misprediction recovery
};

const char *pipeStageName(PipeStage s);

/** One instruction lifecycle event. */
struct PipeEvent
{
    PipeStage stage = PipeStage::Fetch;
    InstSeqNum seq = 0;
    Addr pc = 0;
    Cycle cycle = 0;

    bool fromTrace = false;     ///< fetched from the trace cache
    bool inactive = false;      ///< issued past the predicted exit
    bool onCorrectPath = true;

    // Fill-unit pass annotations carried by the fetched line.
    bool moveMarked = false;
    bool reassociated = false;
    bool scaled = false;
    bool elided = false;

    bool mispredicted = false;  ///< branches: resolves against prediction
};

/** One finalized fill-unit segment with its per-pass transform counts. */
struct FillEvent
{
    Addr startPc = 0;
    Cycle cycle = 0;            ///< finalize cycle (install is +latency)
    unsigned insts = 0;
    unsigned blocks = 0;
    unsigned movesMarked = 0;
    unsigned reassociated = 0;
    unsigned scaledAdds = 0;
    unsigned deadElided = 0;
    unsigned promotedBranches = 0;
};

/** A fill-policy pass-mask switch taking effect at a finalize. */
struct PolicyEvent
{
    Cycle cycle = 0;
    std::uint8_t prevMask = 0;
    std::uint8_t newMask = 0;
};

/**
 * Tracer interface the pipeline hook points call. Implementations
 * must not mutate simulator state; events for one Processor arrive
 * from that Processor's thread only.
 *
 * Stage attribution: Fetch events come from pipeline::FetchEngine;
 * Rename/Issue from pipeline::DispatchRename; Execute/Complete from
 * the Processor's ExecCore; Retire from
 * pipeline::RetireUnit; Squash from pipeline::RecoveryController;
 * fillEvent() from the FillUnit. Processor::setTracer fans one
 * tracer out to all of them.
 */
class PipeTracer
{
  public:
    virtual ~PipeTracer() = default;

    virtual void instEvent(const PipeEvent &ev) = 0;
    virtual void fillEvent(const FillEvent &) {}
    virtual void policyEvent(const PolicyEvent &) {}
};

/**
 * JSONL emitter: one compact JSON object per line, in emission order
 * (cycle-ordered per stage site). Suitable for jq / pandas and for
 * conversion to Kanata with tools/check_stats_json.py's sibling
 * scripts.
 */
class JsonlPipeTracer : public PipeTracer
{
  public:
    explicit JsonlPipeTracer(std::ostream &os) : os_(os) {}

    void instEvent(const PipeEvent &ev) override;
    void fillEvent(const FillEvent &ev) override;
    void policyEvent(const PolicyEvent &ev) override;

    std::uint64_t events() const { return events_; }

  private:
    std::ostream &os_;
    std::uint64_t events_ = 0;
};

/** In-memory collector for tests and programmatic inspection. */
class RecordingPipeTracer : public PipeTracer
{
  public:
    void instEvent(const PipeEvent &ev) override { insts.push_back(ev); }
    void fillEvent(const FillEvent &ev) override { fills.push_back(ev); }
    void policyEvent(const PolicyEvent &ev) override
    {
        policies.push_back(ev);
    }

    std::vector<PipeEvent> insts;
    std::vector<FillEvent> fills;
    std::vector<PolicyEvent> policies;
};

} // namespace tcfill::obs

#endif // TCFILL_OBS_PIPE_TRACE_HH
