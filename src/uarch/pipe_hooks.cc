#include "uarch/pipe_hooks.hh"

namespace tcfill
{

void
emitPipeEvent(obs::PipeTracer &tracer, obs::PipeStage stage,
              const DynInst &di, Cycle cycle)
{
    tracer.instEvent(makePipeEvent(stage, di, cycle));
}

} // namespace tcfill
