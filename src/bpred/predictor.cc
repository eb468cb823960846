#include "bpred/predictor.hh"

#include <utility>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace tcfill
{

namespace
{

/**
 * Largest predictor or bias table a configuration may ask for: 16x
 * the paper's 64K-entry PHT, so a hostile size cannot exhaust memory.
 */
constexpr std::size_t kMaxTableEntries = std::size_t{1} << 20;

} // namespace

PatternHistoryTable::PatternHistoryTable(std::size_t entries)
    : counters_(entries, 1)     // weakly not-taken
{
    fatal_if(!isPowerOf2(entries), "PHT size must be a power of two");
}

bool
PatternHistoryTable::predict(std::size_t index) const
{
    return counters_[index & (counters_.size() - 1)] >= 2;
}

void
PatternHistoryTable::update(std::size_t index, bool taken)
{
    std::uint8_t &c = counters_[index & (counters_.size() - 1)];
    if (taken) {
        if (c < 3)
            ++c;
    } else {
        if (c > 0)
            --c;
    }
}

std::uint8_t
PatternHistoryTable::counter(std::size_t index) const
{
    return counters_[index & (counters_.size() - 1)];
}

std::string
MultiBranchPredictor::Params::check() const
{
    const std::pair<const char *, std::size_t> phts[] = {
        {"pht0Entries", pht0Entries},
        {"pht1Entries", pht1Entries},
        {"pht2Entries", pht2Entries},
    };
    for (const auto &[knob, entries] : phts) {
        if (!isPowerOf2(entries))
            return std::string(knob) + " must be a power of two";
        if (entries > kMaxTableEntries)
            return std::string(knob) + " must be at most " +
                std::to_string(kMaxTableEntries);
    }
    return {};
}

MultiBranchPredictor::MultiBranchPredictor()
    : MultiBranchPredictor(Params{})
{
}

MultiBranchPredictor::MultiBranchPredictor(const Params &params)
    : params_(params),
      pht0_(params.pht0Entries),
      pht1_(params.pht1Entries),
      pht2_(params.pht2Entries)
{
}

std::size_t
MultiBranchPredictor::index(Addr pc, std::size_t entries) const
{
    std::uint64_t h = history_ & mask(params_.historyBits);
    return static_cast<std::size_t>(((pc >> 2) ^ h) & (entries - 1));
}

bool
MultiBranchPredictor::predict(Addr pc, unsigned slot) const
{
    switch (slot) {
      case 0: return pht0_.predict(index(pc, pht0_.entries()));
      case 1: return pht1_.predict(index(pc, pht1_.entries()));
      case 2: return pht2_.predict(index(pc, pht2_.entries()));
      default:
        panic("MultiBranchPredictor: bad slot %u", slot);
    }
}

void
MultiBranchPredictor::update(Addr pc, unsigned slot, bool taken)
{
    ++lookups_;
    if (predict(pc, slot) == taken)
        ++correct_;
    switch (slot) {
      case 0: pht0_.update(index(pc, pht0_.entries()), taken); break;
      case 1: pht1_.update(index(pc, pht1_.entries()), taken); break;
      case 2: pht2_.update(index(pc, pht2_.entries()), taken); break;
      default:
        panic("MultiBranchPredictor: bad slot %u", slot);
    }
    pushHistory(taken);
}

void
MultiBranchPredictor::pushHistory(bool taken)
{
    history_ = ((history_ << 1) | (taken ? 1 : 0)) &
               mask(params_.historyBits);
}

std::size_t
MultiBranchPredictor::storageBits() const
{
    return 2 * (pht0_.entries() + pht1_.entries() + pht2_.entries());
}

void
MultiBranchPredictor::regStats(stats::Group &group)
{
    group.addCounter("bpred.lookups", lookups_,
                     "conditional predictions trained");
    group.addCounter("bpred.correct", correct_,
                     "correct conditional predictions");
    group.addFormula("bpred.accuracy",
        [this]() {
            return lookups_.value() == 0 ? 0.0
                : static_cast<double>(correct_.value()) /
                      static_cast<double>(lookups_.value());
        },
        "conditional prediction accuracy");
}

BiasTable::BiasTable() : BiasTable(Params{})
{
}

std::string
BiasTable::Params::check() const
{
    if (!isPowerOf2(entries))
        return "entries must be a power of two";
    if (entries > kMaxTableEntries)
        return "entries must be at most " + std::to_string(kMaxTableEntries);
    if (promoteThreshold == 0 || promoteThreshold > 127)
        return "promoteThreshold must be in [1,127]";
    return {};
}

BiasTable::BiasTable(const Params &params)
    : params_(params), entries_(params.entries)
{
    const std::string err = params.check();
    fatal_if(!err.empty(), "bias table: %s", err.c_str());
}

std::size_t
BiasTable::index(Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) & (entries_.size() - 1));
}

void
BiasTable::observe(Addr pc, bool taken)
{
    Entry &e = entries_[index(pc)];
    if (e.run > 0 && e.direction == taken) {
        if (e.run < 127)
            ++e.run;
        if (!e.promoted && e.run >= params_.promoteThreshold) {
            e.promoted = true;
            ++promotions_;
        }
    } else {
        if (e.promoted)
            ++demotions_;
        e.promoted = false;
        e.direction = taken;
        e.run = 1;
        // Degenerate threshold of one: a single occurrence qualifies.
        if (e.run >= params_.promoteThreshold) {
            e.promoted = true;
            ++promotions_;
        }
    }
}

bool
BiasTable::isPromoted(Addr pc) const
{
    return entries_[index(pc)].promoted;
}

bool
BiasTable::promotedDirection(Addr pc) const
{
    const Entry &e = entries_[index(pc)];
    panic_if(!e.promoted, "promotedDirection on non-promoted branch");
    return e.direction;
}

std::size_t
BiasTable::storageBits() const
{
    return entries_.size() * 8;     // 7-bit run + direction bit
}

void
BiasTable::regStats(stats::Group &group)
{
    group.addCounter("bias.promotions", promotions_,
                     "branches promoted to static prediction");
    group.addCounter("bias.demotions", demotions_,
                     "promoted branches demoted by a direction flip");
}

ReturnAddressStack::ReturnAddressStack(std::size_t depth)
    : stack_(depth, 0)
{
    fatal_if(depth == 0, "RAS depth must be non-zero");
}

void
ReturnAddressStack::push(Addr return_pc)
{
    top_ = (top_ + 1) % stack_.size();
    stack_[top_] = return_pc;
    if (count_ < stack_.size())
        ++count_;
}

Addr
ReturnAddressStack::pop()
{
    if (count_ == 0)
        return 0;
    Addr value = stack_[top_];
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    --count_;
    return value;
}

Addr
ReturnAddressStack::top() const
{
    return count_ == 0 ? 0 : stack_[top_];
}

IndirectPredictor::IndirectPredictor(std::size_t entries)
    : targets_(entries, 0)
{
    fatal_if(!isPowerOf2(entries),
             "indirect predictor size must be a power of two");
}

std::size_t
IndirectPredictor::index(Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) & (targets_.size() - 1));
}

Addr
IndirectPredictor::predict(Addr pc) const
{
    return targets_[index(pc)];
}

void
IndirectPredictor::update(Addr pc, Addr target)
{
    targets_[index(pc)] = target;
}

} // namespace tcfill
