#include "common/kmeans.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"

namespace tcfill
{

double
bbvProjWeight(Addr pc, std::size_t dim)
{
    std::uint64_t z = pc * 0x9e3779b97f4a7c15ull + dim + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * (2.0 / 9007199254740992.0) -
           1.0;
}

void
BbvCounter::flush()
{
    if (block_len_ == 0)
        return;
    blocks_[block_start_] += block_len_;
    block_len_ = 0;
}

BbvPoint
projectBbv(const std::map<Addr, std::uint64_t> &blocks,
           std::uint64_t insts)
{
    BbvPoint v{};
    if (insts == 0)
        return v;
    const double inv = 1.0 / static_cast<double>(insts);
    for (const auto &[pc, count] : blocks) {
        const double f = static_cast<double>(count) * inv;
        for (std::size_t d = 0; d < kBbvProjDims; ++d)
            v[d] += f * bbvProjWeight(pc, d);
    }
    return v;
}

double
bbvDist2(const BbvPoint &a, const BbvPoint &b)
{
    double s = 0.0;
    for (std::size_t d = 0; d < kBbvProjDims; ++d) {
        const double diff = a[d] - b[d];
        s += diff * diff;
    }
    return s;
}

KmeansResult
kmeansBbv(const std::vector<BbvPoint> &pts, unsigned k,
          std::uint64_t seed)
{
    panic_if(k == 0, "kmeansBbv needs k > 0");
    const std::size_t n = pts.size();
    KmeansResult out;
    if (n == 0)
        return out;
    k = static_cast<unsigned>(std::min<std::size_t>(k, n));

    // k-means++ seeding from a fixed-seed deterministic stream.
    Random rng(seed);
    std::vector<BbvPoint> &centroids = out.centroids;
    centroids.reserve(k);
    centroids.push_back(pts[rng.below(n)]);
    std::vector<double> best(n, 0.0);
    while (centroids.size() < k) {
        double total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            best[i] = bbvDist2(pts[i], centroids[0]);
            for (std::size_t c = 1; c < centroids.size(); ++c)
                best[i] = std::min(best[i],
                                   bbvDist2(pts[i], centroids[c]));
            total += best[i];
        }
        if (total <= 0.0) {
            // All points coincide with a centroid; further centroids
            // are redundant, stop with fewer clusters.
            break;
        }
        // Draw proportional to squared distance using a fixed-point
        // slice of the generator (deterministic, no doubles from rng).
        const double r = total *
            (static_cast<double>(rng.next() >> 11) /
             9007199254740992.0);
        double acc = 0.0;
        std::size_t pick = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            acc += best[i];
            if (acc >= r) {
                pick = i;
                break;
            }
        }
        centroids.push_back(pts[pick]);
    }

    // Lloyd iterations to convergence (bounded; ties break low-index
    // so assignment is deterministic).
    std::vector<std::size_t> &assign = out.assign;
    assign.assign(n, 0);
    for (int iter = 0; iter < 100; ++iter) {
        bool moved = false;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t bc = 0;
            double bd = bbvDist2(pts[i], centroids[0]);
            for (std::size_t c = 1; c < centroids.size(); ++c) {
                const double d = bbvDist2(pts[i], centroids[c]);
                if (d < bd) {
                    bd = d;
                    bc = c;
                }
            }
            if (assign[i] != bc) {
                assign[i] = bc;
                moved = true;
            }
        }
        if (!moved && iter > 0)
            break;
        std::vector<BbvPoint> sums(centroids.size(), BbvPoint{});
        std::vector<std::size_t> counts(centroids.size(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t d = 0; d < kBbvProjDims; ++d)
                sums[assign[i]][d] += pts[i][d];
            ++counts[assign[i]];
        }
        for (std::size_t c = 0; c < centroids.size(); ++c) {
            if (counts[c] == 0)
                continue; // empty cluster keeps its centroid
            for (std::size_t d = 0; d < kBbvProjDims; ++d)
                centroids[c][d] = sums[c][d] /
                    static_cast<double>(counts[c]);
        }
    }
    return out;
}

} // namespace tcfill
