/**
 * @file
 * The trace cache: a 2K-entry, 4-way set-associative store of trace
 * segments indexed by starting fetch address (paper §3: ~156KB for
 * the baseline — 128KB of 4-byte instructions plus 28KB of 7-bit
 * pre-decode).
 */

#ifndef TCFILL_TRACE_TCACHE_HH
#define TCFILL_TRACE_TCACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "trace/segment.hh"

namespace tcfill
{

/** Set-associative trace segment store with LRU replacement. */
class TraceCache
{
  public:
    struct Params
    {
        std::size_t entries = 2048;     ///< total lines
        std::size_t ways = 4;

        /**
         * Why these parameters cannot build a trace cache ("" when
         * they can), naming the offending field. The constructor
         * fatals on it and configFromJson() rejects it.
         */
        std::string check() const;
    };

    TraceCache();
    explicit TraceCache(const Params &params);

    /**
     * Look up a segment starting at @p pc; updates LRU and hit/miss
     * counters. Returns nullptr on miss. The pointer remains valid
     * until the next install() into the same set.
     *
     * The cache is path-associative: several ways may hold segments
     * with the same start address but different internal branch
     * paths. The most recently used match wins (DESIGN.md §3 records
     * why the ways are not chosen by prediction).
     */
    const TraceSegment *lookup(Addr pc);

    /** Tag probe without side effects. */
    bool probe(Addr pc) const;

    /**
     * Install @p seg. A resident segment with the same start PC *and*
     * the same internal path is refreshed in place; otherwise the LRU
     * way is replaced (other paths from the same start address are
     * kept — path associativity).
     */
    void install(TraceSegment seg);

    /** Drop all segments. */
    void flush();

    /** Visit every resident segment (diagnostics / examples). */
    void forEach(const std::function<void(const TraceSegment &)> &fn)
        const;

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t installs() const { return installs_.value(); }

    std::size_t numSets() const { return num_sets_; }

    void regStats(stats::Group &group);

  private:
    struct Way
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        TraceSegment seg;
    };

    std::size_t setIndex(Addr pc) const;

    Params params_;
    std::size_t num_sets_;
    std::vector<Way> ways_;     // num_sets_ * ways, row-major
    std::uint64_t use_clock_ = 0;

    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter installs_;
    stats::Counter replacements_;
};

} // namespace tcfill

#endif // TCFILL_TRACE_TCACHE_HH
