#include "mem/cache.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace tcfill
{

std::string
CacheParams::check() const
{
    // Bounds the allocation: 64x the paper's 1 MB L2.
    if (sizeBytes > (std::size_t{1} << 26))
        return "sizeBytes must be at most 67108864 (64 MB)";
    if (!isPowerOf2(lineBytes))
        return "lineBytes must be a power of two";
    if (ways == 0)
        return "ways must be positive";
    // Divide before multiplying: lineBytes * ways may overflow.
    if (sizeBytes / lineBytes < ways)
        return "sizeBytes must hold at least one set (lineBytes * ways)";
    const std::size_t set_bytes = lineBytes * ways;
    if (sizeBytes % set_bytes != 0 || !isPowerOf2(sizeBytes / set_bytes))
        return "sizeBytes / (lineBytes * ways), the set count, must be "
               "a power of two";
    return {};
}

SetAssocCache::SetAssocCache(const CacheParams &params) : params_(params)
{
    const std::string err = params.check();
    fatal_if(!err.empty(), "%s: %s", params.name.c_str(), err.c_str());
    num_sets_ = params.sizeBytes / (params.lineBytes * params.ways);
    line_shift_ = floorLog2(params.lineBytes);
    lines_.resize(num_sets_ * params.ways);
}

std::size_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> line_shift_) & (num_sets_ - 1);
}

Addr
SetAssocCache::tagOf(Addr addr) const
{
    return addr >> line_shift_;
}

bool
SetAssocCache::access(Addr addr)
{
    Line *set = &lines_[setIndex(addr) * params_.ways];
    Addr tag = tagOf(addr);
    ++use_clock_;

    Line *victim = set;
    for (std::size_t w = 0; w < params_.ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = use_clock_;
            ++hits_;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++misses_;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = use_clock_;
    return false;
}

bool
SetAssocCache::probe(Addr addr) const
{
    const Line *set = &lines_[setIndex(addr) * params_.ways];
    Addr tag = tagOf(addr);
    for (std::size_t w = 0; w < params_.ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::invalidate(Addr addr)
{
    Line *set = &lines_[setIndex(addr) * params_.ways];
    Addr tag = tagOf(addr);
    for (std::size_t w = 0; w < params_.ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            set[w].valid = false;
    }
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
}

void
SetAssocCache::regStats(stats::Group &group) const
{
    group.addCounter(params_.name + ".hits", hits_, "cache hits");
    group.addCounter(params_.name + ".misses", misses_, "cache misses");
    group.addFormula(params_.name + ".miss_rate",
        [this]() {
            auto total = hits_.value() + misses_.value();
            return total == 0 ? 0.0
                : static_cast<double>(misses_.value()) /
                      static_cast<double>(total);
        },
        "fraction of accesses that missed");
}

MemoryHierarchy::MemoryHierarchy() : MemoryHierarchy(Params{})
{
}

MemoryHierarchy::MemoryHierarchy(const Params &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d), l2_(params.l2)
{
}

Cycle
MemoryHierarchy::accessShared(SetAssocCache &l1, Addr addr, Cycle now)
{
    if (l1.access(addr))
        return now;

    Cycle ready = now + params_.l2Latency;
    if (l2_.access(addr))
        return ready;

    // L2 miss: go to memory over the shared bus.
    Cycle start = std::max(ready, bus_free_);
    if (start > ready)
        bus_conflict_cycles_ += start - ready;
    bus_free_ = start + params_.memBusOccupancy;
    return start + params_.memLatency;
}

Cycle
MemoryHierarchy::accessInst(Addr addr, Cycle now)
{
    return accessShared(l1i_, addr, now);
}

Cycle
MemoryHierarchy::accessData(Addr addr, Cycle now)
{
    return accessShared(l1d_, addr, now);
}

void
MemoryHierarchy::regStats(stats::Group &group) const
{
    l1i_.regStats(group);
    l1d_.regStats(group);
    l2_.regStats(group);
    group.addCounter("mem.bus_conflict_cycles", bus_conflict_cycles_,
                     "cycles requests waited on the memory bus");
}

} // namespace tcfill
