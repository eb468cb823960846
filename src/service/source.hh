/**
 * @file
 * ResultSource: the seam that lets the three ways of obtaining a
 * simulation point's SimResult compose — run it (SimRunner, which
 * itself dedupes via its in-memory keyed cache), read it from the
 * persistent ResultStore, or ask a remote tcfilld (RemoteSource, in
 * client.hh). StoreSource decorates any inner source: store hit →
 * parsed record with cacheHit "store"; miss → fetch from the inner
 * source and persist the deterministic record on the way out. The
 * layering is by construction consistent because every layer keys on
 * the same simPointKey() text.
 */

#ifndef TCFILL_SERVICE_SOURCE_HH
#define TCFILL_SERVICE_SOURCE_HH

#include <string>

#include "sim/config.hh"
#include "sim/result.hh"

namespace tcfill
{
class SimRunner;
} // namespace tcfill

namespace tcfill::service
{

class ResultStore;

/** One way of obtaining the SimResult of a simulation point. */
class ResultSource
{
  public:
    virtual ~ResultSource() = default;

    /**
     * Produce the result of (workload, scale, cfg). SimResult::cacheHit
     * records how: "computed", "memory" (in-process cache) or "store".
     */
    virtual SimResult fetch(const std::string &workload, unsigned scale,
                            const SimConfig &cfg) = 0;
};

/** Leaf source: simulate on a SimRunner pool (memory-cache aware). */
class RunnerSource final : public ResultSource
{
  public:
    explicit RunnerSource(SimRunner &runner) : runner_(runner) {}

    SimResult fetch(const std::string &workload, unsigned scale,
                    const SimConfig &cfg) override;

  private:
    SimRunner &runner_;
};

/** Decorator: consult a persistent store before the inner source. */
class StoreSource final : public ResultSource
{
  public:
    StoreSource(ResultStore &store, ResultSource &next)
        : store_(store), next_(next)
    {
    }

    SimResult fetch(const std::string &workload, unsigned scale,
                    const SimConfig &cfg) override;

  private:
    ResultStore &store_;
    ResultSource &next_;
};

/**
 * Normalize @p r to the provenance-free record text the store (and
 * the tcfill-svc-v2 wire) carries: cacheHit forced to "computed" so
 * byte-identity of records never depends on which cache layer served
 * a particular run.
 */
std::string normalizedRecordText(const SimResult &r);

} // namespace tcfill::service

#endif // TCFILL_SERVICE_SOURCE_HH
