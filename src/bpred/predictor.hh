/**
 * @file
 * Branch prediction structures from the paper's §3: a multiple-branch
 * predictor of three skewed pattern history tables (64K/16K/8K 2-bit
 * counters — the i-th table predicts the i-th conditional branch of a
 * trace segment), an 8KB bias table driving branch promotion
 * (threshold: 64 consecutive same-direction occurrences), a return
 * address stack, and a last-target indirect predictor.
 */

#ifndef TCFILL_BPRED_PREDICTOR_HH
#define TCFILL_BPRED_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace tcfill
{

/** One pattern history table of 2-bit saturating counters. */
class PatternHistoryTable
{
  public:
    explicit PatternHistoryTable(std::size_t entries);

    /** Predict taken/not-taken for the given index. */
    bool predict(std::size_t index) const;

    /** Train the counter at @p index with the resolved direction. */
    void update(std::size_t index, bool taken);

    std::size_t entries() const { return counters_.size(); }

    /** Raw counter value (tests). */
    std::uint8_t counter(std::size_t index) const;

  private:
    std::vector<std::uint8_t> counters_;
};

/**
 * The multiple-branch predictor. Produces up to three conditional
 * branch predictions per fetch, one from each (successively smaller)
 * PHT, indexed gshare-style by branch PC xor global history.
 */
class MultiBranchPredictor
{
  public:
    struct Params
    {
        std::size_t pht0Entries = 64 * 1024;
        std::size_t pht1Entries = 16 * 1024;
        std::size_t pht2Entries = 8 * 1024;
        unsigned historyBits = 14;

        /**
         * Why these parameters cannot build the predictor ("" when
         * they can), naming the offending field. configFromJson()
         * rejects it; each PatternHistoryTable fatals on the same
         * sizes.
         */
        std::string check() const;
    };

    MultiBranchPredictor();
    explicit MultiBranchPredictor(const Params &params);

    /**
     * Predict the @p slot-th (0..2) conditional branch of the current
     * fetch group, for the branch at @p pc.
     */
    bool predict(Addr pc, unsigned slot) const;

    /**
     * Train with a resolved branch and advance global history.
     * @param slot which PHT predicted it (0..2).
     */
    void update(Addr pc, unsigned slot, bool taken);

    /** Advance history only (promoted branches bypass the PHTs). */
    void pushHistory(bool taken);

    std::uint64_t history() const { return history_; }

    /** Aggregate storage in bits (tests check ~32KB incl. bias). */
    std::size_t storageBits() const;

    void regStats(stats::Group &group);

  private:
    std::size_t index(Addr pc, std::size_t entries) const;

    Params params_;
    PatternHistoryTable pht0_;
    PatternHistoryTable pht1_;
    PatternHistoryTable pht2_;
    std::uint64_t history_ = 0;
    stats::Counter lookups_;
    stats::Counter correct_;
};

/**
 * Bias table for branch promotion. Each entry tracks the last
 * direction of a conditional branch and how many consecutive times it
 * has gone that way; at @c promoteThreshold the branch is promotable
 * and the fill unit embeds a static prediction in the trace segment.
 * A direction flip resets the run (and demotes).
 */
class BiasTable
{
  public:
    struct Params
    {
        std::size_t entries = 8 * 1024;     // 8KB at ~8 bits/entry
        unsigned promoteThreshold = 64;

        /**
         * Why these parameters cannot build the table ("" when
         * they can), naming the offending field. configFromJson()
         * rejects it; the constructor fatals on it.
         */
        std::string check() const;
    };

    BiasTable();
    explicit BiasTable(const Params &params);

    /** Record a retired conditional branch outcome. */
    void observe(Addr pc, bool taken);

    /** True iff the branch at @p pc currently qualifies as promoted. */
    bool isPromoted(Addr pc) const;

    /** Static direction for a promoted branch (must be promoted). */
    bool promotedDirection(Addr pc) const;

    std::size_t storageBits() const;

    std::uint64_t promotions() const { return promotions_.value(); }
    std::uint64_t demotions() const { return demotions_.value(); }

    void regStats(stats::Group &group);

  private:
    struct Entry
    {
        std::uint8_t run = 0;       // consecutive occurrences, saturating
        bool direction = false;
        bool promoted = false;
    };

    std::size_t index(Addr pc) const;

    Params params_;
    std::vector<Entry> entries_;
    stats::Counter promotions_;
    stats::Counter demotions_;
};

/** Classic return address stack with wrap-around overflow. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::size_t depth = 32);

    void push(Addr return_pc);
    Addr pop();
    Addr top() const;
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

  private:
    std::vector<Addr> stack_;
    std::size_t top_ = 0;
    std::size_t count_ = 0;
};

/** Last-target predictor for non-return indirect branches. */
class IndirectPredictor
{
  public:
    explicit IndirectPredictor(std::size_t entries = 512);

    Addr predict(Addr pc) const;
    void update(Addr pc, Addr target);

  private:
    std::size_t index(Addr pc) const;
    std::vector<Addr> targets_;
};

} // namespace tcfill

#endif // TCFILL_BPRED_PREDICTOR_HH
