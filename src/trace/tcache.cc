#include "trace/tcache.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace tcfill
{

TraceCache::TraceCache() : TraceCache(Params{})
{
}

std::string
TraceCache::Params::check() const
{
    if (ways == 0)
        return "ways must be positive";
    // Bounds the allocation: 32x the paper's 2K-entry trace cache.
    if (entries > 65536)
        return "entries must be at most 65536";
    if (entries % ways != 0 || !isPowerOf2(entries / ways))
        return "entries / ways, the set count, must be a power of two";
    return {};
}

TraceCache::TraceCache(const Params &params) : params_(params)
{
    const std::string err = params.check();
    fatal_if(!err.empty(), "trace cache: %s", err.c_str());
    num_sets_ = params.entries / params.ways;
    ways_.resize(params.entries);
}

std::size_t
TraceCache::setIndex(Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) & (num_sets_ - 1));
}

const TraceSegment *
TraceCache::lookup(Addr pc)
{
    Way *set = &ways_[setIndex(pc) * params_.ways];
    ++use_clock_;

    Way *best = nullptr;
    for (std::size_t w = 0; w < params_.ways; ++w) {
        Way &way = set[w];
        if (way.valid && way.tag == pc &&
            (!best || way.lastUse > best->lastUse))
            best = &way;
    }

    if (best) {
        best->lastUse = use_clock_;
        ++hits_;
        return &best->seg;
    }
    ++misses_;
    return nullptr;
}

namespace
{

/** Same dynamic path: equal start and per-slot (pc, direction). */
bool
samePath(const TraceSegment &a, const TraceSegment &b)
{
    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a.insts[i].pc != b.insts[i].pc ||
            a.insts[i].taken != b.insts[i].taken) {
            return false;
        }
    }
    return true;
}

} // namespace

bool
TraceCache::probe(Addr pc) const
{
    const Way *set = &ways_[setIndex(pc) * params_.ways];
    for (std::size_t w = 0; w < params_.ways; ++w) {
        if (set[w].valid && set[w].tag == pc)
            return true;
    }
    return false;
}

void
TraceCache::install(TraceSegment seg)
{
    panic_if(seg.empty(), "installing empty trace segment");
    panic_if(seg.size() > kSegmentMaxInsts,
             "segment of %zu instructions exceeds line capacity",
             seg.size());

    Way *set = &ways_[setIndex(seg.startPc) * params_.ways];
    ++use_clock_;

    Way *victim = set;
    for (std::size_t w = 0; w < params_.ways; ++w) {
        Way &way = set[w];
        if (way.valid && way.tag == seg.startPc &&
            samePath(way.seg, seg)) {
            // Same start address and path: refresh in place, but never
            // let a shorter prefix clobber a longer packed segment.
            if (seg.size() >= way.seg.size())
                way.seg = std::move(seg);
            way.lastUse = use_clock_;
            ++installs_;
            return;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }

    if (victim->valid)
        ++replacements_;
    victim->valid = true;
    victim->tag = seg.startPc;
    victim->lastUse = use_clock_;
    victim->seg = std::move(seg);
    ++installs_;
}

void
TraceCache::flush()
{
    for (auto &way : ways_)
        way.valid = false;
}

void
TraceCache::forEach(
    const std::function<void(const TraceSegment &)> &fn) const
{
    for (const auto &way : ways_) {
        if (way.valid)
            fn(way.seg);
    }
}

void
TraceCache::regStats(stats::Group &group)
{
    group.addCounter("tcache.hits", hits_, "trace cache hits");
    group.addCounter("tcache.misses", misses_, "trace cache misses");
    group.addCounter("tcache.installs", installs_,
                     "segments installed");
    group.addCounter("tcache.replacements", replacements_,
                     "valid segments evicted");
    group.addFormula("tcache.hit_rate",
        [this]() {
            auto total = hits_.value() + misses_.value();
            return total == 0 ? 0.0
                : static_cast<double>(hits_.value()) /
                      static_cast<double>(total);
        },
        "trace cache hit rate");
}

} // namespace tcfill
