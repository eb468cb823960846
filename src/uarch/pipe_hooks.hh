/**
 * @file
 * Glue between the timing model's DynInst and the observability
 * layer's PipeEvent: one inline snapshot + one hook-site helper shared
 * by every pipeline-stage module that emits lifecycle events (the
 * src/pipeline/ stages, ExecCore, FillUnit). Keeps src/obs free of
 * any uarch dependency — the event struct lives there, the DynInst
 * knowledge lives here.
 */

#ifndef TCFILL_UARCH_PIPE_HOOKS_HH
#define TCFILL_UARCH_PIPE_HOOKS_HH

#include "obs/pipe_trace.hh"
#include "uarch/dyn_inst.hh"

namespace tcfill
{

/** Snapshot @p di into a lifecycle event at @p stage / @p cycle. */
inline obs::PipeEvent
makePipeEvent(obs::PipeStage stage, const DynInst &di, Cycle cycle)
{
    obs::PipeEvent ev;
    ev.stage = stage;
    ev.seq = di.seq;
    ev.pc = di.pc;
    ev.cycle = cycle;
    ev.fromTrace = di.source == FetchSource::TraceCache;
    ev.inactive = di.inactive;
    ev.onCorrectPath = di.onCorrectPath;
    ev.moveMarked = di.moveMarked;
    ev.reassociated = di.reassociated;
    ev.scaled = di.scaled;
    ev.elided = di.elided;
    ev.mispredicted = di.mispredicted;
    return ev;
}

/**
 * tracePipe()'s cold half: snapshot and emit. Out of line, so the
 * inline null test is all a hook site costs with no tracer attached.
 */
void emitPipeEvent(obs::PipeTracer &tracer, obs::PipeStage stage,
                   const DynInst &di, Cycle cycle);

/** Emit @p stage for @p di iff @p tracer is attached. */
inline void
tracePipe(obs::PipeTracer *tracer, obs::PipeStage stage,
          const DynInst &di, Cycle cycle)
{
    if (tracer) [[unlikely]]
        emitPipeEvent(*tracer, stage, di, cycle);
}

} // namespace tcfill

#endif // TCFILL_UARCH_PIPE_HOOKS_HH
