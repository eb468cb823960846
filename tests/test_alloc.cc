/**
 * @file
 * What a store hit allocates. A counting global operator new pins the
 * heap allocations of the hit path's JSON reads: decoding a result
 * record and reading a lookup, result and done header each allocate a
 * fixed number of times, however many members the document holds, so
 * no change can put a per-member tree back on the hit path unnoticed.
 * Its own executable, so that the replaced operator new counts
 * nothing but these tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/json.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"

namespace
{

std::atomic<std::size_t> g_allocations{0};

} // namespace

// Both out of line, so that no inlined new- or delete-expression shows
// the compiler malloc() paired with delete or new paired with free()
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }

void *operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void *p) noexcept { ::operator delete(p); }
void operator delete(void *p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void *p, std::size_t) noexcept { ::operator delete(p); }

namespace tcfill
{
namespace
{

/** Heap allocations @p f makes. */
template <typename F>
std::size_t
allocations(F &&f)
{
    const std::size_t before = g_allocations.load();
    f();
    return g_allocations.load() - before;
}

/** A header of @p type with @p keys lookup keys, as the writer emits it. */
std::string
header(const char *type, unsigned keys = 0)
{
    std::string h;
    obs::JsonWriter w(h);
    w.beginObject();
    w.field("type", type);
    w.field("id", std::uint64_t{7});
    if (std::string_view(type) == "lookup") {
        w.field("progress", false);
        w.beginArray("keys");
        for (unsigned k = 0; k < keys; ++k)
            w.value("compress@1;" + std::string(240, 'k') +
                    std::to_string(k));
        w.endArray();
    } else if (std::string_view(type) == "result") {
        w.field("index", std::uint64_t{0});
        w.field("cacheHit", "store");
    } else {
        w.field("points", std::uint64_t{1});
        w.field("storeHits", std::uint64_t{1});
    }
    w.endObject();
    return h;
}

/** Scan @p text and read every member the way the service does. */
std::uint64_t
readHeader(obs::JsonDocument &doc, const std::string &text)
{
    EXPECT_TRUE(doc.parse(text));
    const obs::JsonNode v = doc.root();
    std::uint64_t sum = v.find("type").str().size() + v.find("id").u64() +
        v.find("progress").boolean() + v.find("index").u64() +
        v.find("cacheHit").str().size() + v.find("points").u64() +
        v.find("storeHits").u64();
    for (const obs::JsonNode k : v.find("keys").elements())
        sum += k.str().size();
    return sum;
}

// A plain record decodes with one allocation for the document's nodes,
// one for its reader's bit per member and one per string member longer
// than the small-string buffer (the 16-digit sourceDigest). The tree
// it replaced allocated per member.
TEST(HitAllocations, RecordDecodeAllocatesAFixedCount)
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "alloc";
    cfg.maxInsts = 2'000;
    SimRunner runner(1);
    const SimResult run = runner.run("compress", cfg, 1);
    ASSERT_EQ(run.sourceDigest.size(), 16u);
    const std::string record = resultRecordText(run);

    std::string err;
    for (int round = 0; round < 3; ++round) {
        SimResult out;
        bool ok = false;
        const std::size_t n = allocations(
            [&] { ok = resultFromRecordText(record, out, err); });
        ASSERT_TRUE(ok) << err;
        EXPECT_EQ(n, 3u) << "round " << round;
        EXPECT_EQ(resultRecordText(out), record);
    }
}

// Each header a hit reads costs its document one allocation, the same
// for one lookup key as for 64, and none once the document is reused
// (the daemon and client keep one per connection and per reply).
TEST(HitAllocations, HeaderReadsAllocateAFixedCount)
{
    for (const std::string &h :
         {header("lookup", 1), header("lookup", 64), header("result"),
          header("done")}) {
        EXPECT_EQ(allocations([&] {
                      obs::JsonDocument doc;
                      readHeader(doc, h);
                  }),
                  1u)
            << h.substr(0, 40);
        obs::JsonDocument reused;
        readHeader(reused, h);
        EXPECT_EQ(allocations([&] { readHeader(reused, h); }), 0u)
            << h.substr(0, 40);
    }
}

// A reused document keeps its buffer for the next header, but not one
// a huge document grew: after a frame of 300,000 values, the next
// header reserves afresh, and the one after reuses that.
TEST(HitAllocations, ReusedDocumentDropsAHugeDocumentsBuffer)
{
    std::string huge = "[0";
    for (unsigned i = 1; i < 300'000; ++i)
        huge += ",0";
    huge += ']';
    const std::string h = header("result");
    obs::JsonDocument doc;
    ASSERT_TRUE(doc.parse(huge));
    EXPECT_EQ(allocations([&] { readHeader(doc, h); }), 1u);
    EXPECT_EQ(allocations([&] { readHeader(doc, h); }), 0u);
}

// A schema'd read allocates nothing per member: reading an object of
// 120 members costs what reading one of 4 does, the document's nodes
// and the reader's bit per member.
TEST(HitAllocations, ObjectReaderAllocatesNothingPerMember)
{
    auto object = [](unsigned members) {
        std::string text;
        obs::JsonWriter w(text);
        w.beginObject();
        for (unsigned m = 0; m < members; ++m)
            w.field(("member" + std::to_string(m)).c_str(),
                    std::uint64_t{m});
        w.endObject();
        return text;
    };
    auto read = [](const std::string &text, unsigned members) {
        obs::JsonDocument doc;
        ASSERT_TRUE(doc.parse(text));
        std::string err;
        obs::ObjectReader r(doc.root(), "doc", err);
        char name[16];
        for (unsigned m = 0; m < members; ++m) {
            std::snprintf(name, sizeof(name), "member%u", m);
            unsigned v = 0;
            ASSERT_TRUE(r.integer(name, v)) << err;
            ASSERT_EQ(v, m);
        }
        ASSERT_TRUE(r.finish()) << err;
    };
    const std::string few = object(4), many = object(120);
    EXPECT_EQ(allocations([&] { read(few, 4); }), 2u);
    EXPECT_EQ(allocations([&] { read(many, 120); }), 2u);
}

} // namespace
} // namespace tcfill
