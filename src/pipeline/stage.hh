/**
 * @file
 * Common base for the first-class pipeline stages (DESIGN.md §10).
 * A stage owns its counters but no registry: regStats() registers
 * them, prefixed with the stage name, into the one processor-wide
 * "sim" group, which dumps, SimResult assembly, the timeline and the
 * per-stage unit tests all read.
 */

#ifndef TCFILL_PIPELINE_STAGE_HH
#define TCFILL_PIPELINE_STAGE_HH

#include "common/stats.hh"
#include "obs/pipe_trace.hh"

namespace tcfill::pipeline
{

/** A pipeline stage: prefixed stats registration + optional tracer. */
class Stage
{
  public:
    Stage() = default;
    virtual ~Stage() = default;

    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

    /**
     * Register this stage's counters (prefixed with the stage name)
     * and those of any components it owns into @p master.
     */
    virtual void regStats(stats::Group &master) = 0;

    /**
     * Attach a pipeline lifecycle tracer (nullptr detaches). Purely
     * observational; stages forward to owned components as needed.
     */
    virtual void setTracer(obs::PipeTracer *tracer) { tracer_ = tracer; }

  protected:
    obs::PipeTracer *tracer_ = nullptr;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_STAGE_HH
