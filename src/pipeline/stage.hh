/**
 * @file
 * Common base for the first-class pipeline stages (DESIGN.md §10).
 * A stage owns its counters but no registry: its regStats() registers
 * them, prefixed with the stage name, into the one processor-wide
 * "sim" group, which dumps, SimResult assembly, the timeline and the
 * per-stage unit tests all read. The Processor holds each stage as a
 * plain member of its concrete type, so every call is direct.
 */

#ifndef TCFILL_PIPELINE_STAGE_HH
#define TCFILL_PIPELINE_STAGE_HH

#include "common/stats.hh"
#include "obs/pipe_trace.hh"

namespace tcfill::pipeline
{

/** A pipeline stage: non-copyable, with an optional tracer. */
class Stage
{
  public:
    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

    /**
     * Attach a pipeline lifecycle tracer (nullptr detaches). Purely
     * observational; stages that own traced components shadow this
     * to forward it.
     */
    void setTracer(obs::PipeTracer *tracer) { tracer_ = tracer; }

  protected:
    Stage() = default;
    ~Stage() = default;

    obs::PipeTracer *tracer_ = nullptr;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_STAGE_HH
