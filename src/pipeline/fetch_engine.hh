/**
 * @file
 * The front end of the decomposed pipeline (DESIGN.md §10): trace-
 * cache and I-cache line construction, multiple-branch prediction,
 * return-address-stack and indirect-target prediction, and advance of
 * the committed-path oracle. Owns the predictors outright; everything
 * else arrives as a narrow constructor-injected view (FetchEnv).
 */

#ifndef TCFILL_PIPELINE_FETCH_ENGINE_HH
#define TCFILL_PIPELINE_FETCH_ENGINE_HH

#include "bpred/predictor.hh"
#include "mem/cache.hh"
#include "pipeline/latches.hh"
#include "pipeline/oracle.hh"
#include "pipeline/stage.hh"
#include "sim/config.hh"
#include "trace/tcache.hh"
#include "uarch/inst_pool.hh"
#include "uarch/pipe_hooks.hh"

namespace tcfill::pipeline
{

/** Everything the fetch engine sees of the rest of the machine. */
struct FetchEnv
{
    const SimConfig &cfg;
    OracleStream &oracle;
    SlabArena &arena;
    MemoryHierarchy &mem;
    TraceCache &tcache;
    FetchControl &ctrl;
    FetchLatch &out;
    /** Execution-engine width, for round-robin I-cache slotting. */
    unsigned numFus;
};

/** Trace-line / I-cache line fetch with multi-branch prediction. */
class FetchEngine : public Stage
{
  public:
    explicit FetchEngine(const FetchEnv &env);

    /** One fetch cycle: build at most one line into the FetchLatch. */
    void tick(Cycle now);

    void regStats(stats::Group &master);

    std::uint64_t mispredicts() const { return mispredicts_.value(); }
    std::uint64_t rescues() const { return rescues_.value(); }

  private:
    FetchLine buildTraceLine(const TraceSegment &seg, Cycle ready);
    FetchLine buildICacheLine(Cycle ready);
    DynInst *makeDynInst(const Instruction &inst, Addr pc,
                         FetchSource src, Cycle fetch_cycle);

    const SimConfig &cfg_;
    OracleStream &oracle_;
    SlabArena &arena_;
    MemoryHierarchy &mem_;
    TraceCache &tcache_;
    FetchControl &ctrl_;
    FetchLatch &out_;
    unsigned num_fus_;

    // Prediction structures: fetch-owned outright.
    MultiBranchPredictor bpred_;
    ReturnAddressStack ras_;
    IndirectPredictor ipred_;

    InstSeqNum seq_next_ = 1;

    stats::Counter mispredicts_;
    stats::Counter rescues_;
    stats::Counter trace_lines_;
    stats::Counter icache_lines_;
};

} // namespace tcfill::pipeline

#endif // TCFILL_PIPELINE_FETCH_ENGINE_HH
