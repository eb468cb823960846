/**
 * @file
 * Lightweight statistics package: named scalar counters, ratios and
 * histograms registered in groups, with text dumping. Modeled loosely
 * on the SimpleScalar / gem5 stats packages the paper's simulator used.
 */

#ifndef TCFILL_COMMON_STATS_HH
#define TCFILL_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace tcfill::stats
{

/** A monotonically increasing 64-bit event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Fixed-bucket histogram over [0, buckets); overflow goes to last. */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets = 0) : counts_(buckets) {}

    void
    sample(std::size_t v, std::uint64_t n = 1)
    {
        if (counts_.empty())
            return;
        std::size_t idx = v < counts_.size() ? v : counts_.size() - 1;
        counts_[idx] += n;
        total_ += n;
        sum_ += static_cast<std::uint64_t>(v) * n;
    }

    std::uint64_t count(std::size_t bucket) const { return counts_.at(bucket); }
    std::uint64_t total() const { return total_; }
    std::size_t buckets() const { return counts_.size(); }

    /** Mean of sampled values (0 when empty). */
    double
    mean() const
    {
        return total_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(total_);
    }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        total_ = 0;
        sum_ = 0;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * A named collection of stats. Components register their counters once
 * at construction; Group::dump() prints "name value # description"
 * lines like SimpleScalar's -dumpconfig output.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    /**
     * Register a counter by reference; the component keeps ownership.
     * @p timing marks the counter a fact of the timing model — equal
     * across interchangeable runs of the same machine (live/replay
     * commit sources). Pass false for implementation diagnostics
     * whose value depends on *how* the model computes (e.g. the
     * memory scheduler's select-attempt count): they still dump and
     * register normally, but the timeline collector skips them so
     * interval series hold only timing facts.
     */
    void
    addCounter(const std::string &name, const Counter &c,
               const std::string &desc, bool timing = true)
    {
        entries_.push_back({name, desc,
            [&c]() { return static_cast<double>(c.value()); }, &c,
            timing});
    }

    /** Register a derived value computed on demand (e.g. IPC). */
    void
    addFormula(const std::string &name, std::function<double()> fn,
               const std::string &desc)
    {
        entries_.push_back({name, desc, std::move(fn)});
    }

    /** Look up a registered value by name; fatals if missing. */
    double value(const std::string &name) const;

    /**
     * Exact 64-bit value of a registered Counter (no double rounding,
     * unlike value()); fatals if the name is missing or names a
     * formula. This is how SimResult is assembled from the registry.
     */
    std::uint64_t counterValue(const std::string &name) const;

    /** True iff a stat of that name was registered. */
    bool has(const std::string &name) const;

    void dump(std::ostream &os) const;

    /**
     * Hierarchical machine-readable dump: dotted stat names become
     * nested JSON objects ("l1i.hits" -> {"l1i": {"hits": ...}}),
     * preserving registration order, so output is byte-deterministic
     * for a deterministic simulation. Descriptions are omitted — the
     * text dump() remains the human-facing format.
     */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /**
     * Names of the registered timing-model counters (formulas and
     * non-timing diagnostics excluded), in registration order — the
     * column set of the obs::Timeline interval series. Stable for a
     * given wiring, so timeline JSON layout is byte-deterministic.
     */
    std::vector<std::string> timingCounterNames() const;

    /**
     * Append the current values of the timing-model counters to
     * @p out, in the same order as timingCounterNames(). Cheap (one
     * 64-bit load per counter): this is the timeline's interval-cut
     * snapshot path.
     */
    void timingCounterValues(std::vector<std::uint64_t> &out) const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> eval;
        /** Backing counter when the entry is one (else nullptr). */
        const Counter *counter = nullptr;
        /** Timing-model fact vs implementation diagnostic. */
        bool timing = true;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

} // namespace tcfill::stats

#endif // TCFILL_COMMON_STATS_HH
