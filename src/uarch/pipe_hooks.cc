#include "uarch/pipe_hooks.hh"

namespace tcfill
{

#if TCFILL_PIPE_TRACE_ENABLED
void
emitPipeEvent(obs::PipeTracer &tracer, obs::PipeStage stage,
              const DynInst &di, Cycle cycle)
{
    tracer.instEvent(makePipeEvent(stage, di, cycle));
}
#endif

} // namespace tcfill
