/**
 * @file
 * Generic set-associative cache tag array with true-LRU replacement.
 * This is a timing-only model: data values live in the functional
 * Memory; the cache tracks presence and supplies hit/miss decisions.
 */

#ifndef TCFILL_MEM_CACHE_HH
#define TCFILL_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace tcfill
{

/** Geometry and identity of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 4096;
    std::size_t lineBytes = 64;
    std::size_t ways = 4;

    /**
     * Why these parameters cannot build a cache ("" when they
     * can), naming the offending field. The constructor fatals on it
     * and configFromJson() rejects it.
     */
    std::string check() const;
};

/** Set-associative tag store with LRU replacement. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Look up @p addr; on miss, allocate its line (evicting LRU).
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Look up without allocating or touching LRU state. */
    bool probe(Addr addr) const;

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr);

    /** Drop all lines. */
    void flush();

    const CacheParams &params() const { return params_; }
    std::size_t numSets() const { return num_sets_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Register hit/miss counters with a stats group. */
    void regStats(stats::Group &group) const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    CacheParams params_;
    std::size_t num_sets_;
    unsigned line_shift_;
    std::vector<Line> lines_;   // num_sets_ * ways, row-major by set
    std::uint64_t use_clock_ = 0;
    stats::Counter hits_;
    stats::Counter misses_;
};

/**
 * The paper's three-level hierarchy for timing purposes:
 * L1 (I or D) -> unified L2 (6-cycle) -> memory (50-cycle, single bus).
 * Requests are non-blocking; the memory bus serializes L2 misses.
 */
class MemoryHierarchy
{
  public:
    struct Params
    {
        CacheParams l1i{"l1i", 4 * 1024, 64, 4};
        CacheParams l1d{"l1d", 64 * 1024, 64, 4};
        CacheParams l2{"l2", 1024 * 1024, 64, 4};
        Cycle l2Latency = 6;
        Cycle memLatency = 50;
        /** Bus occupancy per memory access (serialization grain). */
        Cycle memBusOccupancy = 8;
    };

    MemoryHierarchy();
    explicit MemoryHierarchy(const Params &params);

    /**
     * Perform an instruction fetch lookup at @p now; returns the cycle
     * the line is available.
     */
    Cycle accessInst(Addr addr, Cycle now);

    /** Data access (load or store, write-allocate). */
    Cycle accessData(Addr addr, Cycle now);

    const SetAssocCache &l1i() const { return l1i_; }
    const SetAssocCache &l1d() const { return l1d_; }
    const SetAssocCache &l2() const { return l2_; }

    void regStats(stats::Group &group) const;

  private:
    Cycle accessShared(SetAssocCache &l1, Addr addr, Cycle now);

    Params params_;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    Cycle bus_free_ = 0;
    stats::Counter bus_conflict_cycles_;
};

} // namespace tcfill

#endif // TCFILL_MEM_CACHE_HH
