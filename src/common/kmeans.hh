/**
 * @file
 * Deterministic BBV primitives shared by the SimPoint selector
 * (tracefile/sample.cc), the timeline phase tagger (obs/timeline.cc)
 * and the oracle fill policy's phase tracker (fill/policy.cc): the
 * per-block instruction counts of an interval, their random
 * projection into a fixed low dimension, and a fixed-seed k-means
 * (k-means++ seeding + Lloyd iterations) over the projected points.
 *
 * Everything here is bit-deterministic: projection weights are hashed
 * from the block PC (no stored matrix), the generator seed is a
 * compile-time constant, and all tie-breaks are low-index, so the
 * same intervals always cluster the same way on every platform. The
 * SimPoint golden fixture (tests/golden/compress-sample.json) pins
 * this numerically — any change to the arithmetic or its order is a
 * breaking change.
 */

#ifndef TCFILL_COMMON_KMEANS_HH
#define TCFILL_COMMON_KMEANS_HH

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace tcfill
{

/** Projection dimensionality (SimPoint uses 15; 16 packs nicely). */
constexpr std::size_t kBbvProjDims = 16;

/** Fixed seed: clustering must be reproducible across runs/platforms. */
constexpr std::uint64_t kBbvSelectSeed = 0x51e0b0d15ee7ull;

/** One interval's BBV, random-projected to kBbvProjDims dimensions. */
using BbvPoint = std::array<double, kBbvProjDims>;

/**
 * Pseudo-random projection weight for (block PC, dimension) in
 * [-1, 1), derived by hashing so no projection matrix is stored and
 * every interval sees the same weights. SplitMix64 finalizer.
 */
double bbvProjWeight(Addr pc, std::size_t dim);

/**
 * Per-basic-block instruction counts over one interval of a committed
 * stream, keyed by block start PC. A block ends at an instruction
 * whose ends_block is set (Instruction::endsBlock()). At an interval
 * cut, an open block contributes the instructions it has so far and
 * continues in the next interval under the same start PC.
 */
class BbvCounter
{
  public:
    /** Count one committed instruction. Inline: runs once per commit. */
    void
    note(Addr pc, bool ends_block)
    {
        if (!in_block_) {
            block_start_ = pc;
            in_block_ = true;
        }
        ++block_len_;
        if (ends_block) {
            flush();
            in_block_ = false;
        }
    }

    /** Close the interval and hand over its counts. */
    std::map<Addr, std::uint64_t>
    cut()
    {
        flush();
        std::map<Addr, std::uint64_t> out = std::move(blocks_);
        blocks_.clear();
        return out;
    }

  private:
    /** Add the open block's instructions so far to its count. */
    void flush();

    Addr block_start_ = 0;
    bool in_block_ = false;
    std::uint64_t block_len_ = 0;
    std::map<Addr, std::uint64_t> blocks_;
};

/**
 * Project an interval's per-block instruction counts (keyed by block
 * start PC, summing to @p insts), normalized to frequencies.
 */
BbvPoint projectBbv(const std::map<Addr, std::uint64_t> &blocks,
                    std::uint64_t insts);

double bbvDist2(const BbvPoint &a, const BbvPoint &b);

/** Clustering of a point set: per-point labels + final centroids. */
struct KmeansResult
{
    /** Cluster index per input point (into centroids). */
    std::vector<std::size_t> assign;
    /** Final centroids; size <= requested k (degenerate inputs). */
    std::vector<BbvPoint> centroids;
};

/**
 * Cluster @p pts into (at most) @p k groups: k-means++ seeding from a
 * fixed-seed tcfill::Random stream, then Lloyd iterations to
 * convergence (bounded at 100; assignment ties break low-index, empty
 * clusters keep their centroid). Returns fewer than @p k clusters
 * only when the seeding degenerates (all residual distances zero).
 */
KmeansResult kmeansBbv(const std::vector<BbvPoint> &pts, unsigned k,
                       std::uint64_t seed = kBbvSelectSeed);

} // namespace tcfill

#endif // TCFILL_COMMON_KMEANS_HH
