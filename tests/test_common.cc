/**
 * @file
 * Unit tests for logging, stats, tables, the PRNG and strict number
 * reading.
 */

#include <cstdlib>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace tcfill
{
namespace
{

// ---- logging ---------------------------------------------------------

TEST(Logging, VformatBasics)
{
    EXPECT_EQ(detail::vformat("plain"), "plain");
    EXPECT_EQ(detail::vformat("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(detail::vformat("%05u", 7u), "00007");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 3), "panic: boom 3");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "fatal: bad config x");
}

TEST(LoggingDeath, PanicIfOnlyFiresWhenTrue)
{
    panic_if(false, "must not fire");
    EXPECT_DEATH(panic_if(true, "fires"), "fires");
}

// ---- stats ------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBucketsAndMean)
{
    stats::Histogram h(4);
    h.sample(0);
    h.sample(1, 2);
    h.sample(9);    // overflow -> last bucket
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), (0.0 + 1 + 1 + 9) / 4.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Stats, GroupValuesAndFormulas)
{
    stats::Counter hits, misses;
    hits += 3;
    misses += 1;
    stats::Group g("test");
    g.addCounter("hits", hits, "hits");
    g.addCounter("misses", misses, "misses");
    g.addFormula("rate",
        [&]() {
            return static_cast<double>(hits.value()) /
                   static_cast<double>(hits.value() + misses.value());
        },
        "hit rate");
    EXPECT_TRUE(g.has("hits"));
    EXPECT_FALSE(g.has("nope"));
    EXPECT_DOUBLE_EQ(g.value("hits"), 3.0);
    EXPECT_DOUBLE_EQ(g.value("rate"), 0.75);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("test.hits"), std::string::npos);
    EXPECT_NE(os.str().find("# hit rate"), std::string::npos);
}

TEST(StatsDeath, MissingStatIsFatal)
{
    stats::Group g("g");
    EXPECT_EXIT(g.value("absent"), ::testing::ExitedWithCode(1),
                "not registered");
}

// ---- tables -----------------------------------------------------------

TEST(Table, AlignsColumns)
{
    TextTable t({"name", "v"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header, separator and two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(-2.5, 1), "-2.5");
    EXPECT_EQ(TextTable::pct(0.1734, 1), "17.3%");
}

TEST(TableDeath, RowArityMismatchIsFatal)
{
    TextTable t({"a", "b"});
    EXPECT_EXIT(t.addRow({"only-one"}), ::testing::ExitedWithCode(1),
                "row has");
}

// ---- random -----------------------------------------------------------

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, SeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Random, BelowInBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Random, RangeInclusive)
{
    Random r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, PercentExtremes)
{
    Random r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.percent(0));
        EXPECT_TRUE(r.percent(100));
    }
}

// ---- strict integers ------------------------------------------------

// A command-line integer is digits alone, no larger than its cap or
// its field's type; anything else is refused with the range it needed
// and leaves the field as it was.
TEST(ReadUnsigned, TakesOnlyBoundedDigits)
{
    unsigned u = 7;
    for (const std::string bad : {"", "abc", "-1", "+1", " 1", "1 ", "1e6",
                                  "0x10", "4294967296",
                                  "99999999999999999999"}) {
        EXPECT_EQ(readUnsigned(bad, u),
                  "needs an integer from 0 to 4294967295, got '" + bad +
                      "'");
    }
    EXPECT_EQ(u, 7u);
    EXPECT_EQ(readUnsigned("4294967295", u), "");
    EXPECT_EQ(u, 4294967295u);
    std::uint64_t n = 0;
    EXPECT_EQ(readUnsigned("18446744073709551615", n), "");
    EXPECT_EQ(n, ~std::uint64_t{0});
    EXPECT_EQ(readUnsigned("64", u, 64), "");
    EXPECT_EQ(readUnsigned("65", u, 64),
              "needs an integer from 0 to 64, got '65'");
    EXPECT_EQ(u, 64u);
}

TEST(ReadNumber, TakesOnlyWholeFiniteNumbers)
{
    double d = 7.0;
    for (const std::string bad : {"", "x", "1e", "+1", " 1", "1 ", "0.5x",
                                  "0x10", "inf", "-inf", "nan", "1e999"})
        EXPECT_EQ(readNumber(bad, d), "needs a number, got '" + bad + "'");
    EXPECT_EQ(d, 7.0);
    // Parsed as atof() parsed it, so "0.002" keeps its bits.
    for (const char *good : {"0.002", "-1", "2e-3", "5", "0.05"}) {
        EXPECT_EQ(readNumber(good, d), "") << good;
        EXPECT_EQ(d, std::atof(good)) << good;
    }
}

} // namespace
} // namespace tcfill
