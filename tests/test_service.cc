/**
 * @file
 * Simulation-service tests: the digest primitives every
 * content-addressed identity derives from (pinned to published test
 * vectors and a bytewise reference so an accidental algorithm change
 * orphans no store), the store-key text (the client's key is the
 * daemon's), the config codec (configs the model cannot run are
 * refused, with a seeded mutation fuzz), the tcfill-svc-v3 frame
 * codec, message layout and buffered reader (with a seeded mutation
 * fuzz of frame streams, of lookup replies fed to a client and of
 * lookups fed to a daemon), the persistent ResultStore (round trips,
 * reopen, LRU eviction, compaction, corruption recovery and a
 * crash-point sweep), provenance-free record text, and the daemon end
 * to end: the schema handshake, pipelined requests, key-only lookups,
 * progress on request, request coalescing, provenance accounting,
 * refused configs and headers, and byte-identical records across
 * every provenance path, shard count and concurrent client.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/digest.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/source.hh"
#include "service/store.hh"
#include "sim/config_io.hh"
#include "sim/processor.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

using namespace tcfill;
using namespace tcfill::service;

namespace
{

/** Fresh scratch directory per test (TempDir is per-test-binary). */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "tcfill_svc_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

SimConfig
tinyConfig(const std::string &name = "tiny")
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = name;
    cfg.maxInsts = 2'000;
    return cfg;
}

// ---- digest vectors -----------------------------------------------------

// The store, the trace format and the wire frames all checksum with
// this one CRC-32; the published check value pins the polynomial.
TEST(Digest, Crc32CheckVector)
{
    const char kCheck[] = "123456789";
    EXPECT_EQ(digest::crc32(kCheck, 9), 0xcbf43926u);
    EXPECT_EQ(digest::crc32("", 0), 0u);
}

TEST(Digest, Crc32Seeding)
{
    // Chained CRC over two chunks equals the one-shot CRC.
    const std::string a = "hello, ", b = "world";
    std::uint32_t chained =
        digest::crc32(b.data(), b.size(),
                      digest::crc32(a.data(), a.size()));
    const std::string ab = a + b;
    EXPECT_EQ(chained, digest::crc32(ab.data(), ab.size()));
}

/** The textbook bit-at-a-time CRC-32 the table-driven one must match. */
std::uint32_t
bitwiseCrc32(const unsigned char *p, std::size_t len, std::uint32_t seed)
{
    std::uint32_t c = seed ^ 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

// Slice-by-8 folds eight bytes per step, so pin it against the
// reference at every start alignment and every tail length, chained.
TEST(Digest, Crc32MatchesBitwiseReferenceAtEveryAlignment)
{
    Random rng(7);
    unsigned char buf[64 + 8];
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.next());
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 64; ++len) {
            const unsigned char *p = buf + align;
            const std::uint32_t seed =
                static_cast<std::uint32_t>(align * 131 + len);
            EXPECT_EQ(digest::crc32(p, len), bitwiseCrc32(p, len, 0))
                << "align " << align << " len " << len;
            EXPECT_EQ(digest::crc32(p, len, seed),
                      bitwiseCrc32(p, len, seed))
                << "align " << align << " len " << len;
            // Any split point chains to the one-shot value.
            const std::size_t cut = len / 3;
            EXPECT_EQ(digest::crc32(p + cut, len - cut,
                                    digest::crc32(p, cut, seed)),
                      bitwiseCrc32(p, len, seed));
        }
    }
}

TEST(Digest, Fnv64Vectors)
{
    EXPECT_EQ(digest::fnv64(""), digest::kFnv64Offset);
    EXPECT_EQ(digest::fnv64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(digest::fnv64("foobar"), 0x85944171f73967e8ull);
}

TEST(Digest, Fnv64Incremental)
{
    digest::Fnv64 h;
    h.update("foo").update("bar");
    EXPECT_EQ(h.value(), digest::fnv64("foobar"));
}

TEST(Digest, Hex64)
{
    EXPECT_EQ(digest::hex64(0), "0000000000000000");
    EXPECT_EQ(digest::hex64(0xdeadbeefcafef00dull),
              "deadbeefcafef00d");
}

// ---- simulation-point keys ----------------------------------------------

TEST(PointKey, NameIsCosmetic)
{
    SimConfig a = tinyConfig("one");
    SimConfig b = tinyConfig("two");
    EXPECT_EQ(configCacheKey(a), configCacheKey(b));
    EXPECT_EQ(simPointKey("compress", 1, a),
              simPointKey("compress", 1, b));
}

TEST(PointKey, KnobsAreNot)
{
    const SimConfig base = tinyConfig();
    SimConfig t = base;
    t.maxInsts = 3'000;
    EXPECT_NE(configCacheKey(base), configCacheKey(t));
    t = base;
    t.tcache.entries /= 2;
    EXPECT_NE(configCacheKey(base), configCacheKey(t));
    t = base;
    t.fill.opts.markMoves = !t.fill.opts.markMoves;
    EXPECT_NE(configCacheKey(base), configCacheKey(t));
    EXPECT_NE(simPointKey("compress", 1, base),
              simPointKey("compress", 2, base));
    EXPECT_NE(simPointKey("compress", 1, base),
              simPointKey("li", 1, base));
}

// The persistent store is keyed by this text: its bytes must never
// move. The policy double keeps ostream's default %g (six significant
// digits), which differs from the shortest round-trip form for values
// such as 0.1 + 0.2. The slot after it held a retired policy's knob
// and always reads 0.02, its old default.
TEST(PointKey, KeyTextIsPinned)
{
    EXPECT_EQ(configCacheKey(SimConfig{}),
              "tc=1;ii=1;fw=16;fq=4;rw=16;win=512;ras=32;mi=0;mc=0;ti=0;"
              "tp=0|fill=5,1,0,1,1,16,3|opts=00000,11|policy=0,8,10000,"
              "0.05,0.02,|tcache=2048,4,000|mem=4096,64,4;65536,64,4;"
              "1048576,64,4;6,50,8|bp=65536,16384,8192,14|bias=8192,64|"
              "core=4,4,32,1,0");

    SimConfig b = SimConfig::withOpts(FillOptimizations::all(), 10);
    b.fill.policy.newPhaseDist = 0.1 + 0.2;
    EXPECT_EQ(simPointKey("compress", 3, b),
              "compress@3#tc=1;ii=1;fw=16;fq=4;rw=16;win=512;ras=32;mi=0;"
              "mc=0;ti=0;tp=0|fill=10,1,0,1,1,16,3|opts=11110,11|"
              "policy=0,8,10000,0.3,0.02,|tcache=2048,4,111|"
              "mem=4096,64,4;65536,64,4;1048576,64,4;6,50,8|"
              "bp=65536,16384,8192,14|bias=8192,64|core=4,4,32,1,0");

    SimConfig c;
    c.fill.policy.kind = FillPolicyKind::Oracle;
    c.fill.policy.oracleMap = "0=all,*=none";
    c.fill.policy.newPhaseDist = 1.0 / 3;
    c.maxInsts = std::numeric_limits<InstSeqNum>::max();
    c.useTraceCache = false;
    EXPECT_EQ(configCacheKey(c),
              "tc=0;ii=1;fw=16;fq=4;rw=16;win=512;ras=32;"
              "mi=18446744073709551615;mc=0;ti=0;tp=0|fill=5,1,0,1,1,16,3|"
              "opts=00000,11|policy=3,8,10000,0.333333,0.02,"
              "0=all,*=none|tcache=2048,4,000|mem=4096,64,4;65536,64,4;"
              "1048576,64,4;6,50,8|bp=65536,16384,8192,14|bias=8192,64|"
              "core=4,4,32,1,0");

    auto policyText = [](double dist) {
        SimConfig cfg;
        cfg.fill.policy.newPhaseDist = dist;
        const std::string key = configCacheKey(cfg);
        const std::size_t at = key.find("|policy=");
        return key.substr(at, key.find("|tcache") - at);
    };
    EXPECT_EQ(policyText(std::numeric_limits<double>::infinity()),
              "|policy=0,8,10000,inf,0.02,");
    EXPECT_EQ(policyText(-0.0), "|policy=0,8,10000,-0,0.02,");
    EXPECT_EQ(policyText(1e21), "|policy=0,8,10000,1e+21,0.02,");
    EXPECT_EQ(policyText(100000.0), "|policy=0,8,10000,100000,0.02,");
    EXPECT_EQ(policyText(1000000.0), "|policy=0,8,10000,1e+06,0.02,");
    EXPECT_EQ(policyText(0.0001), "|policy=0,8,10000,0.0001,0.02,");
}

// ---- config codec -------------------------------------------------------

/** @p cfg as its configToJson() text. */
std::string
configText(const SimConfig &cfg)
{
    std::string text;
    obs::JsonWriter w(text);
    configToJson(w, cfg);
    return text;
}

/** configFromJson() over scanned @p text; malformed JSON fails too. */
bool
configFromText(std::string_view text, SimConfig &out, std::string &err)
{
    obs::JsonDocument doc;
    if (!doc.parse(text)) {
        err = "malformed JSON";
        return false;
    }
    return configFromJson(doc.root(), out, err);
}

/** A knob setting the model cannot run, and the field it must name. */
struct BadKnob
{
    const char *field;
    void (*set)(SimConfig &);
};

void
oracleWithMap(SimConfig &c, const char *map)
{
    c.fill.policy.kind = FillPolicyKind::Oracle;
    c.fill.policy.oracleMap = map;
}

// Each of these parses, but the model would fatal, panic or never
// finish on it. The wire parser must refuse every one with a message
// that starts with the field's path, so a daemon answers it with an
// error frame instead of handing it to a shard.
const BadKnob kBadKnobs[] = {
    {"config.core: numClusters",
     [](SimConfig &c) { c.core.numClusters = 0; }},
    {"config.core: numClusters * fusPerCluster",
     [](SimConfig &c) { c.core.fusPerCluster = 9; }},
    {"config.core: numClusters * fusPerCluster",
     [](SimConfig &c) { c.core.numClusters = 3; }},
    {"config.core: rsEntries", [](SimConfig &c) { c.core.rsEntries = 0; }},
    {"config.tcache: ways", [](SimConfig &c) { c.tcache.ways = 0; }},
    {"config.tcache: entries",
     [](SimConfig &c) { c.tcache.entries = 3000; }},
    {"config.mem.l1i: lineBytes",
     [](SimConfig &c) { c.mem.l1i.lineBytes = 48; }},
    {"config.mem.l1d: ways", [](SimConfig &c) { c.mem.l1d.ways = 0; }},
    {"config.mem.l2: sizeBytes",
     [](SimConfig &c) { c.mem.l2.sizeBytes = 3 << 20; }},
    {"config.bpred: pht0Entries",
     [](SimConfig &c) { c.bpred.pht0Entries = 1000; }},
    {"config.bpred: pht1Entries",
     [](SimConfig &c) { c.bpred.pht1Entries = 1000; }},
    {"config.bpred: pht2Entries",
     [](SimConfig &c) { c.bpred.pht2Entries = 1000; }},
    {"config.bias: entries", [](SimConfig &c) { c.bias.entries = 1000; }},
    {"config.bias: promoteThreshold",
     [](SimConfig &c) { c.bias.promoteThreshold = 0; }},
    {"config: rasDepth", [](SimConfig &c) { c.rasDepth = 0; }},
    {"config.fill: maxInsts", [](SimConfig &c) { c.fill.maxInsts = 0; }},
    {"config.fill: maxInsts", [](SimConfig &c) { c.fill.maxInsts = 17; }},
    {"config.fill: maxCondBranches",
     [](SimConfig &c) { c.fill.maxCondBranches = 9; }},
    {"config.fill.policy: windowInsts",
     [](SimConfig &c) {
         oracleWithMap(c, "*=all");
         c.fill.policy.windowInsts = 0;
     }},
    {"config.fill.policy: maxPhases",
     [](SimConfig &c) {
         oracleWithMap(c, "*=all");
         c.fill.policy.maxPhases = 0;
     }},
    {"config.fill.policy: oracleMap",
     [](SimConfig &c) { oracleWithMap(c, ""); }},
    {"config.fill.policy: oracleMap",
     [](SimConfig &c) { oracleWithMap(c, "0=all,nokey"); }},
    {"config.fill.policy: oracleMap",
     [](SimConfig &c) { oracleWithMap(c, "*=bogus"); }},
    {"config.fill.policy: oracleMap",
     [](SimConfig &c) { oracleWithMap(c, "99999999999999999999=all"); }},
    {"config.fill.policy: oracleMap",
     [](SimConfig &c) { oracleWithMap(c, "4294967296=all"); }},
    {"config: retireWidth", [](SimConfig &c) { c.retireWidth = 0; }},
    {"config: fetchWidth", [](SimConfig &c) { c.fetchWidth = 0; }},
    {"config: fetchQueueLines", [](SimConfig &c) { c.fetchQueueLines = 0; }},
    {"config: windowCap", [](SimConfig &c) { c.windowCap = 0; }},
    {"config: windowCap", [](SimConfig &c) { c.windowCap = 15; }},
    // Resource limits: tables whose allocation would exhaust memory,
    // and latencies that outlast the retire unit's deadlock window.
    {"config.tcache: entries",
     [](SimConfig &c) { c.tcache.entries = std::size_t{1} << 31; }},
    {"config.bpred: pht0Entries",
     [](SimConfig &c) { c.bpred.pht0Entries = std::size_t{1} << 31; }},
    {"config.bpred: pht1Entries",
     [](SimConfig &c) { c.bpred.pht1Entries = std::size_t{1} << 31; }},
    {"config.bpred: pht2Entries",
     [](SimConfig &c) { c.bpred.pht2Entries = std::size_t{1} << 31; }},
    {"config.bias: entries",
     [](SimConfig &c) { c.bias.entries = std::size_t{1} << 31; }},
    {"config.core: rsEntries",
     [](SimConfig &c) { c.core.rsEntries = 1u << 31; }},
    {"config: rasDepth", [](SimConfig &c) { c.rasDepth = 1u << 31; }},
    {"config.mem.l2: sizeBytes",
     [](SimConfig &c) { c.mem.l2.sizeBytes = std::size_t{1} << 40; }},
    {"config.mem: l2Latency",
     [](SimConfig &c) { c.mem.l2Latency = Cycle{1} << 31; }},
    {"config.mem: memLatency",
     [](SimConfig &c) { c.mem.memLatency = Cycle{1} << 31; }},
    {"config.core: crossClusterDelay",
     [](SimConfig &c) { c.core.crossClusterDelay = Cycle{1} << 31; }},
    {"config.mem: memBusOccupancy",
     [](SimConfig &c) { c.mem.memBusOccupancy = 65536; }},
    // Knobs that size what a run holds: window slots (unbounded once
    // memBusOccupancy is 0), fetch-queue lines and timeline rows.
    {"config: windowCap",
     [](SimConfig &c) {
         c.mem.memBusOccupancy = 0;
         c.windowCap = 1u << 20;
     }},
    {"config: fetchQueueLines",
     [](SimConfig &c) { c.fetchQueueLines = 1u << 20; }},
    {"config: statsInterval", [](SimConfig &c) { c.statsInterval = 1; }},
    {"config: statsInterval",
     [](SimConfig &c) {
         c.maxInsts = InstSeqNum{1} << 40;
         c.statsInterval = 1'000;
     }},
};

// ServiceClient::sweep looks a point up by the key of its own config;
// a sweep files the point under the key of the config the daemon
// parsed off the wire. Over the paper's 32 pass masks x 3 fill
// latencies the two are the same text, so a swept point is found by
// the next lookup.
TEST(PointKey, ClientKeyEqualsDaemonKey)
{
    for (unsigned mask = 0; mask <= kPassMaskEvery; ++mask) {
        for (Cycle lat : {Cycle{1}, Cycle{5}, Cycle{10}}) {
            ServiceClient::Point p;
            p.workload = "li";
            p.scale = 2;
            p.config = SimConfig::withOpts(
                optsFromPassMask(static_cast<PassMask>(mask)), lat);
            p.config.name = "mask " + std::to_string(mask);
            p.config.maxInsts = 20'000 + 8 * mask;
            SimConfig wire;
            std::string err;
            ASSERT_TRUE(configFromText(configText(p.config), wire, err))
                << err;
            EXPECT_EQ(simPointKey(p.workload, p.scale, p.config),
                      simPointKey(p.workload, p.scale, wire))
                << "mask " << mask << " latency " << lat;
        }
    }
}

TEST(ConfigWire, RejectsConfigsTheModelCannotRun)
{
    for (const BadKnob &k : kBadKnobs) {
        SimConfig cfg = tinyConfig();
        k.set(cfg);
        EXPECT_EQ(cfg.check().rfind(k.field, 0), 0u)
            << k.field << ": " << cfg.check();

        SimConfig parsed;
        std::string err;
        EXPECT_FALSE(configFromText(configText(cfg), parsed, err))
            << k.field;
        EXPECT_EQ(err.rfind(k.field, 0), 0u) << k.field << ": " << err;
    }
}

// A config naming a retired policy, or carrying the knob only one of
// them read, is refused rather than run as some other machine.
TEST(ConfigWire, RejectsRetiredPolicies)
{
    const std::string text = configText(tinyConfig());
    auto refusal = [](const std::string &bad) {
        SimConfig parsed;
        std::string err;
        EXPECT_FALSE(configFromText(bad, parsed, err));
        return err;
    };
    const std::size_t kind = text.find("\"static\"");
    ASSERT_NE(kind, std::string::npos);
    for (const std::string retired : {"phase", "feedback"}) {
        std::string bad = text;
        bad.replace(kind, 8, '"' + retired + '"');
        EXPECT_EQ(refusal(bad),
                  "config.fill.policy: unknown kind '" + retired + "'");
    }
    std::string bad = text;
    bad.insert(text.find("\"oracleMap\""), "\"hysteresis\": 0.02, ");
    EXPECT_EQ(refusal(bad),
              "config.fill.policy: unknown member 'hysteresis'");
}

// The limits refuse only machines that cannot run: the edges just
// inside them parse and simulate to the instruction cap.
TEST(ConfigWire, AcceptsTheEdgesTheModelRuns)
{
    void (*const edges[])(SimConfig &) = {
        [](SimConfig &c) { c.windowCap = 16; },
        [](SimConfig &c) {
            c.windowCap = 1;
            c.fetchWidth = 1;
            c.fill.maxInsts = 1;
        },
        [](SimConfig &c) {
            c.core.numClusters = 1;
            c.core.fusPerCluster = 16;
        },
        [](SimConfig &c) {
            c.core.numClusters = 8;
            c.core.fusPerCluster = 4;
        },
        [](SimConfig &c) {
            c.useTraceCache = false;
            c.core.numClusters = 1;
            c.core.fusPerCluster = 1;
            c.windowCap = 4;
            c.fetchWidth = 4;
        },
        [](SimConfig &c) {
            c.fetchQueueLines = 1;
            c.retireWidth = 1;
            c.core.rsEntries = 1;
            c.rasDepth = 1;
        },
        [](SimConfig &c) {
            c.bias.promoteThreshold = 127;
            c.fill.maxCondBranches = 0;
        },
        [](SimConfig &c) {
            oracleWithMap(c, "*=all");
            c.fill.policy.windowInsts = 1;
            c.fill.policy.maxPhases = 1;
        },
        [](SimConfig &c) { oracleWithMap(c, "2147483647=none,*=all"); },
        // The largest tables and latencies the limits allow.
        [](SimConfig &c) {
            c.tcache.entries = 65536;
            c.bpred.pht0Entries = std::size_t{1} << 20;
            c.bpred.pht1Entries = std::size_t{1} << 20;
            c.bpred.pht2Entries = std::size_t{1} << 20;
            c.bias.entries = std::size_t{1} << 20;
            c.core.rsEntries = 4096;
            c.rasDepth = 4096;
        },
        [](SimConfig &c) {
            c.mem.l1i.sizeBytes = std::size_t{1} << 26;
            c.mem.l1d.sizeBytes = std::size_t{1} << 26;
            c.mem.l2.sizeBytes = std::size_t{1} << 26;
        },
        [](SimConfig &c) {
            c.mem.l2Latency = 10'000;
            c.mem.memLatency = 10'000;
            c.core.crossClusterDelay = 10'000;
            c.mem.memBusOccupancy = 50'000 / c.windowCap;
        },
        [](SimConfig &c) {
            c.windowCap = 16;
            c.mem.memBusOccupancy = 50'000 / 16;
        },
        // The largest window and fetch queue and the finest timeline.
        [](SimConfig &c) {
            c.mem.memBusOccupancy = 0;
            c.windowCap = 65536;
            c.fetchQueueLines = 1024;
            c.statsInterval = 100;
        },
    };
    for (std::size_t i = 0; i < std::size(edges); ++i) {
        SimConfig cfg = tinyConfig();
        edges[i](cfg);
        SimConfig parsed;
        std::string err;
        ASSERT_TRUE(configFromText(configText(cfg), parsed, err))
            << "edge " << i << ": " << err;
        EXPECT_EQ(configCacheKey(parsed), configCacheKey(cfg));
        const SimResult r =
            simulate(workloads::build("compress", 1), parsed);
        EXPECT_EQ(r.retired, cfg.maxInsts) << "edge " << i;
    }
}

// Seeded mutations of configToJson() output — flipped bytes, deleted
// and duplicated ranges, digit runs replaced by 0, 2^31, 2^64 or -1 —
// must each be refused with a message or accepted as a config that
// round-trips to the same cache key.
TEST(ConfigFuzz, MutatedConfigsRejectOrRoundTrip)
{
    SimConfig oracle = tinyConfig("oracle");
    oracleWithMap(oracle, "0=all,1=moves+placement,*=none");
    const std::string bases[] = {configText(SimConfig{}),
                                 configText(oracle)};
    const char *const numbers[] = {"0", "2147483648",
                                   "18446744073709551616", "-1"};
    const auto digit = [](char c) { return c >= '0' && c <= '9'; };

    Random rng(0xc0f16);
    unsigned accepted = 0, refused = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::string text = bases[iter % 2];
        const std::size_t at = rng.below(text.size());
        switch ((iter / 2) % 4) {
          case 0:   // one flipped byte
            text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
            break;
          case 1:   // a deleted range
            text.erase(at, 1 + rng.below(24));
            break;
          case 2:   // a duplicated range
            text.insert(at, text.substr(at, 1 + rng.below(48)));
            break;
          default: {  // a digit run replaced by a hostile number
            std::vector<std::size_t> runs;
            for (std::size_t i = 0; i < text.size(); ++i) {
                if (digit(text[i]) && (i == 0 || !digit(text[i - 1])))
                    runs.push_back(i);
            }
            const std::size_t start = runs[rng.below(runs.size())];
            std::size_t end = start;
            while (end < text.size() && digit(text[end]))
                ++end;
            text.replace(start, end - start,
                         numbers[rng.below(std::size(numbers))]);
            break;
          }
        }

        SimConfig parsed;
        std::string err;
        if (!configFromText(text, parsed, err)) {
            EXPECT_FALSE(err.empty()) << text;
            ++refused;
            continue;
        }
        ++accepted;
        SimConfig again;
        ASSERT_TRUE(configFromText(configText(parsed), again, err))
            << err << "\n" << text;
        EXPECT_EQ(configCacheKey(again), configCacheKey(parsed)) << text;
        EXPECT_EQ(again.name, parsed.name) << text;
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(refused, 100u);
}

// ---- frame codec --------------------------------------------------------

TEST(Frame, RoundTrip)
{
    const std::string payload = "{\"type\": \"ping\"}";
    const std::string frame = encodeFrame(payload);
    EXPECT_EQ(frame.size(), payload.size() + kFrameOverhead);

    std::string out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(frame, out, consumed), FrameStatus::Ok);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(consumed, frame.size());
}

TEST(Frame, EmptyPayload)
{
    const std::string frame = encodeFrame("");
    std::string out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(frame, out, consumed), FrameStatus::Ok);
    EXPECT_EQ(out, "");
    EXPECT_EQ(consumed, kFrameOverhead);
}

TEST(Frame, BackToBackFrames)
{
    const std::string two = encodeFrame("first") + encodeFrame("second");
    std::string out;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(two, out, consumed), FrameStatus::Ok);
    EXPECT_EQ(out, "first");
    ASSERT_EQ(decodeFrame(std::string_view(two).substr(consumed), out,
                          consumed),
              FrameStatus::Ok);
    EXPECT_EQ(out, "second");
}

TEST(Frame, EveryTruncationNeedsMore)
{
    const std::string frame = encodeFrame("truncate me");
    for (std::size_t n = 0; n < frame.size(); ++n) {
        std::string out;
        std::size_t consumed = 0;
        EXPECT_EQ(decodeFrame(std::string_view(frame).substr(0, n),
                              out, consumed),
                  FrameStatus::NeedMore)
            << "prefix length " << n;
    }
}

TEST(Frame, BadMagic)
{
    std::string frame = encodeFrame("x");
    frame[0] ^= 0xff;
    std::string out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(frame, out, consumed), FrameStatus::BadMagic);
}

TEST(Frame, PayloadCorruptionIsBadCrc)
{
    std::string frame = encodeFrame("payload bytes");
    frame[8] ^= 0x01; // first payload byte
    std::string out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(frame, out, consumed), FrameStatus::BadCrc);
}

TEST(Frame, ForgedLengthIsTooLarge)
{
    std::string frame = encodeFrame("x");
    // Overwrite the length word with kMaxFramePayload + 1 (LE).
    const std::uint32_t huge = kMaxFramePayload + 1;
    for (int i = 0; i < 4; ++i)
        frame[4 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
    std::string out;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(frame, out, consumed), FrameStatus::TooLarge);
}

// ---- messages -----------------------------------------------------------

/** Put @p v little-endian into @p out at @p at. */
void
pokeU32(std::string &out, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(Message, HeaderAndBodyRoundTrip)
{
    const std::string header = "{\"type\": \"result\"}";
    const std::string body = "{\n  \"record\": \"raw \\\"bytes\\\"\"\n}";
    std::string frames;
    appendMessage(frames, header, body);
    appendMessage(frames, "{\"type\": \"done\"}");

    std::string payload;
    std::size_t consumed = 0;
    ASSERT_EQ(decodeFrame(frames, payload, consumed), FrameStatus::Ok);
    std::string_view h, b;
    ASSERT_TRUE(splitMessage(payload, h, b));
    EXPECT_EQ(h, header);
    EXPECT_EQ(b, body) << "the body travels as its own bytes";
    ASSERT_EQ(decodeFrame(std::string_view(frames).substr(consumed),
                          payload, consumed),
              FrameStatus::Ok);
    ASSERT_TRUE(splitMessage(payload, h, b));
    EXPECT_EQ(h, "{\"type\": \"done\"}");
    EXPECT_TRUE(b.empty());
}

TEST(Message, ForgedHeaderLengthIsRejected)
{
    std::string_view h, b;
    EXPECT_FALSE(splitMessage("", h, b));
    EXPECT_FALSE(splitMessage("\x01\x00\x00", h, b));
    std::string payload("\x00\x00\x00\x00{}", 6);
    for (std::uint32_t hlen : {3u, 100u, 0xffffffffu}) {
        pokeU32(payload, 0, hlen);
        EXPECT_FALSE(splitMessage(payload, h, b)) << hlen;
    }
    pokeU32(payload, 0, 2);
    ASSERT_TRUE(splitMessage(payload, h, b));
    EXPECT_EQ(h, "{}");
    pokeU32(payload, 0, 0);
    ASSERT_TRUE(splitMessage(payload, h, b));
    EXPECT_EQ(h, "");
    EXPECT_EQ(b, "{}");
}

// ---- buffered frame reader ----------------------------------------------

/** What a FrameReader made of one byte stream. */
struct Drained
{
    std::vector<std::string> payloads;
    WireStatus end = WireStatus::Ok;
};

/**
 * Send @p bytes through a socketpair (from a writer thread, then
 * half-close) and read frames until the reader stops.
 */
Drained
drainThroughSocket(const std::string &bytes)
{
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::thread writer([&] {
        std::size_t put = 0;
        while (put < bytes.size()) {
            ssize_t r = ::send(sv[0], bytes.data() + put,
                               bytes.size() - put, MSG_NOSIGNAL);
            if (r <= 0)
                break;
            put += static_cast<std::size_t>(r);
        }
        ::shutdown(sv[0], SHUT_WR);
    });
    Drained d;
    {
        FrameReader reader(sv[1]);
        std::string_view payload;
        while ((d.end = reader.next(payload)) == WireStatus::Ok)
            d.payloads.emplace_back(payload);
    }
    // Unblock a writer still sending after the reader gave up.
    ::close(sv[1]);
    writer.join();
    ::close(sv[0]);
    return d;
}

TEST(FrameReader, BackToBackFramesThenCleanEof)
{
    const std::string stream =
        encodeFrame("first") + encodeFrame("") + encodeFrame("third");
    Drained d = drainThroughSocket(stream);
    EXPECT_EQ(d.end, WireStatus::Eof);
    EXPECT_EQ(d.payloads,
              (std::vector<std::string>{"first", "", "third"}));
    EXPECT_EQ(drainThroughSocket("").end, WireStatus::Eof);
}

TEST(FrameReader, EveryTruncationIsEofOrError)
{
    const std::string first = encodeFrame("kept");
    const std::string frame = encodeFrame("truncate me");
    for (std::size_t n = 0; n < frame.size(); ++n) {
        Drained d = drainThroughSocket(first + frame.substr(0, n));
        ASSERT_EQ(d.payloads.size(), 1u) << "prefix length " << n;
        EXPECT_EQ(d.payloads[0], "kept");
        // EOF is clean only at a frame boundary.
        EXPECT_EQ(d.end, n == 0 ? WireStatus::Eof : WireStatus::Error)
            << "prefix length " << n;
    }
}

TEST(FrameReader, BadMagicIsCorrupt)
{
    std::string frame = encodeFrame("x");
    frame[0] ^= 0xff;
    Drained d = drainThroughSocket(encodeFrame("ok") + frame);
    EXPECT_EQ(d.payloads, std::vector<std::string>{"ok"});
    EXPECT_EQ(d.end, WireStatus::Corrupt);
}

TEST(FrameReader, PayloadCorruptionIsCorrupt)
{
    std::string frame = encodeFrame("payload bytes");
    frame[8] ^= 0x01;
    EXPECT_EQ(drainThroughSocket(frame).end, WireStatus::Corrupt);
    frame = encodeFrame("payload bytes");
    frame[frame.size() - 1] ^= 0x80;    // the CRC itself
    EXPECT_EQ(drainThroughSocket(frame).end, WireStatus::Corrupt);
}

TEST(FrameReader, ForgedLengthIsCorruptOrError)
{
    std::string frame = encodeFrame("x");
    pokeU32(frame, 4, kMaxFramePayload + 1);
    EXPECT_EQ(drainThroughSocket(frame).end, WireStatus::Corrupt);
    // A length within the cap that the peer never sends: the reader
    // waits for it, then reports the EOF inside the frame.
    frame = encodeFrame("x");
    pokeU32(frame, 4, kMaxFramePayload);
    EXPECT_EQ(drainThroughSocket(frame).end, WireStatus::Error);
}

TEST(FrameReader, LargeFrameRoundTrips)
{
    std::string big(3u << 20, '\0');
    Random rng(3);
    for (char &c : big)
        c = static_cast<char>(rng.next());
    Drained d = drainThroughSocket(encodeFrame(big) + encodeFrame("tail"));
    EXPECT_EQ(d.end, WireStatus::Eof);
    ASSERT_EQ(d.payloads.size(), 2u);
    EXPECT_TRUE(d.payloads[0] == big);
    EXPECT_EQ(d.payloads[1], "tail");
}

// ---- seeded mutation fuzz -----------------------------------------------

std::string
randomBytes(Random &rng, std::size_t n)
{
    std::string out(n, '\0');
    for (char &c : out)
        c = static_cast<char>(rng.next());
    return out;
}

// Truncated, bit-flipped, forged-length, garbage-spliced and plain
// concatenated frame streams: the reader must hand back an untouched
// prefix of the sent payloads and then stop with a WireStatus — never
// a wrong payload, a crash, a hang or a read past the buffer.
TEST(WireFuzz, MutatedFrameStreamsRejectOrRoundTrip)
{
    Random rng(0x5eed);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::string> sent;
        std::vector<std::size_t> ends{0};
        std::string stream;
        const std::size_t frames = 1 + rng.below(4);
        for (std::size_t k = 0; k < frames; ++k) {
            std::string payload;
            if (rng.below(2)) {
                appendMessage(payload, "{\"type\": \"ping\"}",
                              randomBytes(rng, rng.below(64)));
                payload = payload.substr(8, payload.size() - 12);
            } else {
                payload = randomBytes(rng, rng.below(300));
            }
            stream += encodeFrame(payload);
            sent.push_back(payload);
            ends.push_back(stream.size());
        }

        std::string mutated = stream;
        const std::size_t at = rng.below(stream.size());
        const std::size_t frame = rng.below(frames);
        switch (iter % 5) {
          case 0:   // truncation anywhere
            mutated.resize(rng.below(stream.size() + 1));
            break;
          case 1:   // one flipped bit
            mutated[at] = static_cast<char>(
                mutated[at] ^ (1 << rng.below(8)));
            break;
          case 2:   // one forged length word
            pokeU32(mutated, ends[frame] + 4,
                    rng.below(2) ? static_cast<std::uint32_t>(rng.next())
                                 : static_cast<std::uint32_t>(
                                       rng.below(400)));
            break;
          case 3:   // garbage spliced in at a frame boundary
            mutated.insert(ends[rng.below(frames + 1)],
                           randomBytes(rng, 1 + rng.below(16)));
            break;
          default:  // plain concatenation
            break;
        }

        Drained d = drainThroughSocket(mutated);
        ASSERT_LE(d.payloads.size(), sent.size()) << "iteration " << iter;
        for (std::size_t j = 0; j < d.payloads.size(); ++j)
            ASSERT_EQ(d.payloads[j], sent[j]) << "iteration " << iter;
        std::size_t clean = frames + 1;
        for (std::size_t k = 0; k <= frames; ++k) {
            if (mutated == stream.substr(0, ends[k]))
                clean = k;
        }
        if (clean <= frames) {
            EXPECT_EQ(d.end, WireStatus::Eof) << "iteration " << iter;
            EXPECT_EQ(d.payloads.size(), clean) << "iteration " << iter;
        } else {
            EXPECT_TRUE(d.end == WireStatus::Error ||
                        d.end == WireStatus::Corrupt)
                << "iteration " << iter << ": "
                << wireStatusName(d.end);
        }
    }
}

/**
 * A stand-in daemon on a Unix socket: answers one client's hello and
 * replies to its next request (a sweep's lookup) with canned bytes,
 * then hangs up.
 */
class ScriptedServer
{
  public:
    explicit ScriptedServer(const std::string &path) : path_(path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(fd_, 4), 0);
    }

    ~ScriptedServer()
    {
        ::close(fd_);
        ::unlink(path_.c_str());
    }

    /** Serve one connection in the background; join with finish(). */
    void
    serveOnce(std::string sweepReply)
    {
        thread_ = std::thread([this, reply = std::move(sweepReply)] {
            int c = ::accept(fd_, nullptr, nullptr);
            if (c < 0)
                return;
            FrameReader reader(c);
            std::string_view payload;
            if (reader.next(payload) == WireStatus::Ok) {
                std::string hello;
                appendMessage(hello, std::string("{\"type\": \"hello\", "
                                                 "\"schema\": \"") +
                                         kSvcSchema + "\"}");
                writeAll(c, hello);
                if (reader.next(payload) == WireStatus::Ok)
                    writeAll(c, reply);
            }
            ::close(c);
        });
    }

    void finish() { thread_.join(); }

  private:
    std::string path_;
    int fd_ = -1;
    std::thread thread_;
};

// Result frames carry a record's raw bytes after a JSON header. Here
// one answers the lookup a sweep starts with, and the client must turn
// every mutation of it — header, body, header length — into a clean
// error or the intact record, never a crash.
TEST(WireFuzz, MutatedResultFramesRejectOrRoundTrip)
{
    const std::string dir = scratchDir("fuzzresult");
    ScriptedServer server(dir + "/sock");

    SimResult sample;
    sample.config = "fuzz";
    sample.workload = "compress";
    sample.maxInsts = 2'000;
    sample.retired = 2'000;
    sample.cycles = 1'234;
    sample.tcHits = 77;
    sample.bpredAccuracy = 0.9375;
    const std::string record = resultRecordText(sample);
    const std::string header =
        "{\"type\": \"result\", \"id\": 1, \"index\": 0, "
        "\"cacheHit\": \"store\"}";
    std::string done;
    appendMessage(done, "{\"type\": \"done\", \"id\": 1, \"points\": 1}");
    std::vector<ServiceClient::Point> pts(1);
    pts[0].workload = "compress";
    pts[0].config = tinyConfig();

    std::string original(4, '\0');
    pokeU32(original, 0, static_cast<std::uint32_t>(header.size()));
    original += header + record;

    Random rng(0xf00d);
    for (int iter = 0; iter < 300; ++iter) {
        std::string payload = original;
        const std::size_t at = rng.below(payload.size());
        switch (iter % 6) {
          case 0:   // flipped byte in the header
            payload[4 + rng.below(header.size())] ^=
                static_cast<char>(1 + rng.below(255));
            break;
          case 1:   // flipped byte in the record
            payload[4 + header.size() + rng.below(record.size())] ^=
                static_cast<char>(1 + rng.below(255));
            break;
          case 2:   // truncated payload
            payload.resize(at);
            break;
          case 3:   // forged header length
            pokeU32(payload, 0,
                    static_cast<std::uint32_t>(
                        rng.below(2) ? rng.next() : rng.below(200)));
            break;
          case 4:   // record replaced by garbage
            payload = payload.substr(0, 4 + header.size()) +
                randomBytes(rng, rng.below(200));
            break;
          default:  // intact
            break;
        }
        const bool intact = payload == original;
        server.serveOnce(encodeFrame(payload) + done);

        ServiceClient client;
        std::string err;
        ASSERT_TRUE(client.connect(dir + "/sock", err)) << err;
        std::vector<SimResult> out;
        ServiceClient::SweepSummary summary;
        const bool ok = client.sweep(pts, out, summary, err);
        client.close();
        server.finish();
        if (ok) {
            ASSERT_EQ(out.size(), 1u);
            if (intact) {
                EXPECT_EQ(out[0].cacheHit, "store");
                EXPECT_EQ(resultRecordText(out[0]),
                          resultRecordText([&] {
                              SimResult r = sample;
                              r.config = pts[0].config.name;
                              r.cacheHit = "store";
                              return r;
                          }()));
            }
        } else {
            EXPECT_FALSE(intact) << "iteration " << iter << ": " << err;
            EXPECT_FALSE(err.empty()) << "iteration " << iter;
        }
    }
}

// ---- persistent result store --------------------------------------------

TEST(Store, PutGetRoundTrip)
{
    const std::string dir = scratchDir("roundtrip");
    ResultStore store(dir);
    std::string err;
    ASSERT_TRUE(store.load(err)) << err;

    EXPECT_TRUE(store.put("key-a", "value-a"));
    EXPECT_TRUE(store.put("key-b", "value-b"));
    std::string v;
    EXPECT_TRUE(store.get("key-a", v));
    EXPECT_EQ(v, "value-a");
    EXPECT_TRUE(store.get("key-b", v));
    EXPECT_EQ(v, "value-b");
    EXPECT_FALSE(store.get("key-c", v));
    EXPECT_EQ(store.size(), 2u);

    // Overwrite: last put wins.
    EXPECT_TRUE(store.put("key-a", "value-a2"));
    EXPECT_TRUE(store.get("key-a", v));
    EXPECT_EQ(v, "value-a2");
    EXPECT_EQ(store.size(), 2u);

    StoreStats s = store.stats();
    EXPECT_EQ(s.puts, 3u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.liveRecords, 2u);
}

TEST(Store, PersistsAcrossReopen)
{
    const std::string dir = scratchDir("reopen");
    std::string err;
    {
        ResultStore store(dir);
        ASSERT_TRUE(store.load(err)) << err;
        EXPECT_TRUE(store.put("k1", "v1"));
        EXPECT_TRUE(store.put("k2", "v2"));
        EXPECT_TRUE(store.erase("k1"));
    }
    ResultStore store(dir);
    ASSERT_TRUE(store.load(err)) << err;
    EXPECT_EQ(store.size(), 1u);
    std::string v;
    EXPECT_FALSE(store.get("k1", v));
    EXPECT_TRUE(store.get("k2", v));
    EXPECT_EQ(v, "v2");
}

TEST(Store, LruEvictionUnderCap)
{
    const std::string dir = scratchDir("evict");
    // Each entry is 2 + 6 = 8 live bytes; cap at two entries' worth.
    ResultStore store(dir, 16);
    std::string err;
    ASSERT_TRUE(store.load(err)) << err;

    EXPECT_TRUE(store.put("k1", "aaaaaa"));
    EXPECT_TRUE(store.put("k2", "bbbbbb"));
    std::string v;
    EXPECT_TRUE(store.get("k1", v)); // k1 now most recent
    EXPECT_TRUE(store.put("k3", "cccccc"));

    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.get("k1", v));
    EXPECT_FALSE(store.get("k2", v)) << "LRU entry should be evicted";
    EXPECT_TRUE(store.get("k3", v));
    EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(Store, TouchPersistsLruOrderAcrossReopen)
{
    const std::string dir = scratchDir("touch");
    std::string err;
    {
        ResultStore store(dir, 16);
        ASSERT_TRUE(store.load(err)) << err;
        EXPECT_TRUE(store.put("k1", "aaaaaa"));
        EXPECT_TRUE(store.put("k2", "bbbbbb"));
        std::string v;
        EXPECT_TRUE(store.get("k1", v)); // TOUCH k1 in the log
    }
    ResultStore store(dir, 16);
    ASSERT_TRUE(store.load(err)) << err;
    // Replayed order must remember the touch: k2 is the LRU victim.
    EXPECT_TRUE(store.put("k3", "cccccc"));
    std::string v;
    EXPECT_TRUE(store.get("k1", v));
    EXPECT_FALSE(store.get("k2", v));
}

TEST(Store, CompactPreservesContentAndShrinksLog)
{
    const std::string dir = scratchDir("compact");
    std::string err;
    {
        ResultStore store(dir);
        ASSERT_TRUE(store.load(err)) << err;
        // Churn: overwrites, touches and an erase leave dead log bytes.
        for (int round = 0; round < 4; ++round)
            for (int k = 0; k < 4; ++k)
                EXPECT_TRUE(store.put("key" + std::to_string(k),
                                      "round" + std::to_string(round)));
        std::string v;
        EXPECT_TRUE(store.get("key0", v));
        EXPECT_TRUE(store.erase("key3"));

        const std::uint64_t before = store.stats().logBytes;
        ASSERT_TRUE(store.compact(err)) << err;
        EXPECT_LT(store.stats().logBytes, before);
        EXPECT_EQ(store.size(), 3u);
        for (int k = 0; k < 3; ++k) {
            EXPECT_TRUE(store.get("key" + std::to_string(k), v));
            EXPECT_EQ(v, "round3");
        }
        EXPECT_FALSE(store.get("key3", v));
    }

    // And the compacted log replays (first holder must release its
    // lock before a second opener may load).
    ResultStore reopened(dir);
    ASSERT_TRUE(reopened.load(err)) << err;
    EXPECT_EQ(reopened.size(), 3u);
}

// Regression: eviction used to pass lru_.back() by reference into
// dropLocked(), which erased that exact list node and then built the
// ERASE record from the dangling key. A garbage ERASE record reads as
// a torn tail on reload, silently truncating every later record.
TEST(Store, EvictionLogsWellFormedEraseRecords)
{
    const std::string dir = scratchDir("evictlog");
    std::string err;
    {
        // 8 live bytes per small entry; cap so one put evicts two.
        ResultStore store(dir, 30);
        ASSERT_TRUE(store.load(err)) << err;
        EXPECT_TRUE(store.put("k1", "aaaaaa"));
        EXPECT_TRUE(store.put("k2", "bbbbbb"));
        EXPECT_TRUE(store.put("k3", "cccccc"));
        EXPECT_TRUE(store.put("k4", std::string(18, 'd')));
        EXPECT_EQ(store.stats().evictions, 2u);
        // Records appended after the evictions must survive reload.
        EXPECT_TRUE(store.put("k5", "eeeeee"));
        EXPECT_EQ(store.stats().evictions, 3u);
    }
    ResultStore store(dir, 30);
    ASSERT_TRUE(store.load(err)) << err;
    EXPECT_EQ(store.stats().recoveredDrops, 0u)
        << "eviction ERASE records must replay cleanly";
    EXPECT_EQ(store.size(), 2u);
    std::string v;
    EXPECT_FALSE(store.get("k1", v));
    EXPECT_FALSE(store.get("k2", v));
    EXPECT_FALSE(store.get("k3", v));
    EXPECT_TRUE(store.get("k4", v));
    EXPECT_EQ(v, std::string(18, 'd'));
    EXPECT_TRUE(store.get("k5", v));
    EXPECT_EQ(v, "eeeeee");
}

TEST(Store, SecondOpenerIsLockedOut)
{
    const std::string dir = scratchDir("lock");
    std::string err;
    ResultStore first(dir);
    ASSERT_TRUE(first.load(err)) << err;
    // A second daemon or an offline --compact against a live store
    // would rename a new inode under the holder's fd; refuse instead.
    ResultStore second(dir);
    EXPECT_FALSE(second.load(err));
    EXPECT_NE(err.find("locked"), std::string::npos) << err;
}

TEST(Store, TornTailIsTruncatedOnLoad)
{
    const std::string dir = scratchDir("torn");
    std::string err;
    std::string path;
    {
        ResultStore store(dir);
        ASSERT_TRUE(store.load(err)) << err;
        EXPECT_TRUE(store.put("good", "value"));
        path = store.path();
    }
    // Simulate a crash mid-append: half a record at the tail.
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const char torn[] = {0x01, 0x04, 'p', 'a'};
        ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
        std::fclose(f);
    }
    ResultStore store(dir);
    ASSERT_TRUE(store.load(err)) << err;
    EXPECT_EQ(store.size(), 1u);
    EXPECT_GE(store.stats().recoveredDrops, 1u);
    std::string v;
    EXPECT_TRUE(store.get("good", v));
    EXPECT_EQ(v, "value");
    // The truncated log accepts appends again.
    EXPECT_TRUE(store.put("after", "recovery"));
    EXPECT_TRUE(store.get("after", v));
}

TEST(Store, OnDiskBitFlipDegradesToMiss)
{
    const std::string dir = scratchDir("bitflip");
    std::string err;
    ResultStore store(dir);
    ASSERT_TRUE(store.load(err)) << err;
    const std::string value(64, 'x');
    EXPECT_TRUE(store.put("fragile", value));
    EXPECT_TRUE(store.put("sturdy", "ok"));

    // Flip one byte inside "fragile"'s stored value, behind the
    // store's back. The value is 64 'x' bytes; find and damage one.
    {
        std::FILE *f = std::fopen(store.path().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::string log;
        int c;
        while ((c = std::fgetc(f)) != EOF)
            log.push_back(static_cast<char>(c));
        std::size_t at = log.find(std::string(8, 'x'));
        ASSERT_NE(at, std::string::npos);
        ASSERT_EQ(std::fseek(f, static_cast<long>(at), SEEK_SET), 0);
        ASSERT_EQ(std::fputc('y', f), 'y');
        std::fclose(f);
    }

    std::string v;
    EXPECT_FALSE(store.get("fragile", v))
        << "corrupt record must degrade to a miss, not a wrong value";
    EXPECT_GE(store.stats().corruptDrops, 1u);
    EXPECT_TRUE(store.get("sturdy", v));
    EXPECT_EQ(v, "ok");
    // The key is invalidated, not wedged: a fresh put repairs it.
    EXPECT_TRUE(store.put("fragile", value));
    EXPECT_TRUE(store.get("fragile", v));
    EXPECT_EQ(v, value);
}

/** The whole log file at @p path. */
std::string
readFile(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/** A store directory holding exactly @p log as its log file. */
std::string
storeWithLog(const std::string &tag, const std::string &log)
{
    const std::string dir = scratchDir(tag);
    std::FILE *f = std::fopen((dir + "/results.tcfstore").c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (f) {
        EXPECT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
        std::fclose(f);
    }
    return dir;
}

// One rotted byte early in the log used to read as a torn tail: the
// reload truncated the log there and lost every later record.
TEST(Store, RottedRecordCostsOnlyItselfOnReload)
{
    const std::string dir = scratchDir("rot");
    auto value = [](int k) {
        return "value " + std::to_string(k) + std::string(12, 'v');
    };
    std::string path;
    {
        ResultStore store(dir);
        std::string err;
        ASSERT_TRUE(store.load(err)) << err;
        for (int k = 0; k <= 1000; ++k)
            ASSERT_TRUE(store.put("key " + std::to_string(k), value(k)));
        path = store.path();
    }
    std::string log = readFile(path);
    const std::size_t at = log.find(value(0));
    ASSERT_NE(at, std::string::npos);
    log[at] ^= 0x20;
    const std::string rotted = storeWithLog("rot2", log);

    ResultStore store(rotted);
    std::string err;
    ASSERT_TRUE(store.load(err)) << err;
    const StoreStats s = store.stats();
    EXPECT_EQ(s.liveRecords, 1000u);
    EXPECT_EQ(s.corruptDrops, 1u);
    EXPECT_EQ(s.recoveredDrops, 0u);
    EXPECT_EQ(s.logBytes, log.size()) << "nothing may be truncated";
    std::string v;
    EXPECT_FALSE(store.get("key 0", v));
    for (int k = 1; k <= 1000; ++k) {
        ASSERT_TRUE(store.get("key " + std::to_string(k), v)) << k;
        ASSERT_EQ(v, value(k));
    }
}

// A rotted length byte misframes its record, and used to misframe
// every record after it: the reload read them as a torn tail and
// truncated the log there. Replay resynchronizes at the next whole
// record, so only the damaged record is lost, on reload and after a
// compaction.
TEST(Store, RottedLengthCostsOnlyItsRecord)
{
    const std::string dir = scratchDir("rotlen");
    // Keys as long as simPointKey texts: two-byte length varints.
    auto key = [](int k) {
        return "point " + std::to_string(k) + "@1 " + std::string(200, 'k');
    };
    auto value = [](int k) {
        return "{record " + std::to_string(k) + "}" + std::string(300, 'r');
    };
    std::string path;
    {
        ResultStore store(dir);
        std::string err;
        ASSERT_TRUE(store.load(err)) << err;
        for (int k = 0; k < 100; ++k)
            ASSERT_TRUE(store.put(key(k), value(k)));
        path = store.path();
    }
    std::string log = readFile(path);
    // The first record: its PUT op after the 12-byte header, then the
    // first byte of its key length.
    ASSERT_EQ(log[12], '\x01');
    --log[13];
    const std::string rotted = storeWithLog("rotlen2", log);

    for (const bool compacted : {false, true}) {
        ResultStore store(rotted);
        std::string err;
        ASSERT_TRUE(store.load(err)) << err;
        const StoreStats s = store.stats();
        EXPECT_EQ(s.liveRecords, 99u) << compacted;
        EXPECT_EQ(s.recoveredDrops, 0u) << compacted;
        EXPECT_EQ(s.corruptDrops, compacted ? 0u : 1u);
        if (!compacted) {
            EXPECT_EQ(s.logBytes, log.size()) << "nothing may be truncated";
        }
        std::string v;
        EXPECT_FALSE(store.get(key(0), v));
        for (int k = 1; k < 100; ++k) {
            ASSERT_TRUE(store.get(key(k), v)) << k;
            ASSERT_EQ(v, value(k));
        }
        if (!compacted) {
            ASSERT_TRUE(store.compact(err)) << err;
        }
    }
}

// The crash-point sweep: a log cut at every record boundary, or inside
// any record, reloads exactly the records before the cut; one rotted
// byte in any record's key, value or lengths costs that record alone.
// No reload ever serves a wrong value.
TEST(StoreFuzz, TruncateOrRotAtEveryRecord)
{
    const std::string dir = scratchDir("crashpoints");
    constexpr int kPuts = 24;
    auto key = [](int k) { return "point " + std::to_string(k) + "@1"; };
    auto value = [](int k) {
        // Past 127 bytes from k = 6 on: two-byte length varints too.
        return "{record " + std::to_string(k) + "}" +
            std::string(20 * static_cast<std::size_t>(k), 'r');
    };
    // PUTs interleaved with gets (TOUCH records); ends[i] is the log
    // size after the i-th PUT's record and putAt[i] where it starts.
    std::vector<std::size_t> putAt, ends;
    std::string path;
    {
        ResultStore store(dir);
        std::string err;
        ASSERT_TRUE(store.load(err)) << err;
        std::string v;
        for (int k = 0; k < kPuts; ++k) {
            putAt.push_back(store.stats().logBytes);
            ASSERT_TRUE(store.put(key(k), value(k)));
            ends.push_back(store.stats().logBytes);
            if (k % 3 == 2) {
                ASSERT_TRUE(store.get(key(k / 2), v));
            }
        }
        path = store.path();
    }
    const std::string log = readFile(path);

    // Load @p bytes; every key must miss or return its own value.
    // Returns the keys served.
    auto reload = [&](const std::string &bytes, StoreStats &stats) {
        const std::string d = storeWithLog("crashpoint", bytes);
        ResultStore store(d);
        std::string err;
        EXPECT_TRUE(store.load(err)) << err;
        std::vector<int> served;
        std::string v;
        for (int k = 0; k < kPuts; ++k) {
            if (store.get(key(k), v)) {
                EXPECT_EQ(v, value(k)) << "key " << k;
                served.push_back(k);
            }
        }
        stats = store.stats();
        return served;
    };
    auto firstN = [](int n) {
        std::vector<int> out;
        for (int k = 0; k < n; ++k)
            out.push_back(k);
        return out;
    };

    for (int i = 0; i < kPuts; ++i) {
        StoreStats st;
        // Cut exactly at the record's start and end (a TOUCH record
        // may follow it), and inside it.
        EXPECT_EQ(reload(log.substr(0, putAt[i]), st), firstN(i)) << i;
        EXPECT_EQ(reload(log.substr(0, ends[i]), st), firstN(i + 1)) << i;
        EXPECT_EQ(st.recoveredDrops, 0u) << i;
        const std::size_t inside =
            putAt[i] + 1 + (ends[i] - putAt[i] - 1) * (i % 4) / 4;
        EXPECT_EQ(reload(log.substr(0, inside), st), firstN(i)) << i;
        EXPECT_EQ(st.recoveredDrops, 1u) << i;

        // One rotted byte in the key, in the value, in the key length
        // and in the value length.
        std::vector<int> others = firstN(kPuts);
        others.erase(others.begin() + i);
        const std::size_t keyAt = log.find(key(i), putAt[i]);
        const std::size_t valueAt = log.find(value(i), keyAt);
        ASSERT_LT(valueAt, ends[i]) << i;
        for (const std::size_t at :
             {keyAt + key(i).size() / 2, valueAt + value(i).size() / 2,
              putAt[i] + 1, keyAt + key(i).size()}) {
            std::string rotted = log;
            rotted[at] ^= 0x01;
            EXPECT_EQ(reload(rotted, st), others) << i << " at " << at;
            EXPECT_EQ(st.recoveredDrops, 0u) << i << " at " << at;
            EXPECT_GE(st.corruptDrops, 1u) << i << " at " << at;
        }
    }
    StoreStats st;
    EXPECT_EQ(reload(log, st), firstN(kPuts));
    EXPECT_EQ(st.corruptDrops, 0u);
}

// A crash can leave a torn append's tail zero-filled. The CRC-32 of no
// bytes is 0, so a record with an empty key over zeros would verify at
// any offset: after a key-length varint whose second byte is 1, 2 or 3
// (a key of 128-511 bytes, as simPointKey texts are), the zeros would
// read as a PUT, TOUCH or ERASE of key "". Such a tail holds no whole
// record: it is truncated, and no key "" is served.
TEST(StoreFuzz, ZeroFilledTornPutIsTruncated)
{
    // Keys whose length varint's second byte is 1, 2 and 3.
    for (const std::size_t keyLen : {130u, 300u, 450u}) {
        const std::string dir = scratchDir("zerotail");
        std::size_t tornAt = 0;
        std::string path;
        {
            ResultStore store(dir);
            std::string err;
            ASSERT_TRUE(store.load(err)) << err;
            ASSERT_TRUE(store.put("point 0@1", "{record 0}"));
            tornAt = store.stats().logBytes;
            ASSERT_TRUE(store.put(std::string(keyLen, 'k'), "{record 1}"));
            path = store.path();
        }
        // The second PUT, torn past its op and two-byte key length.
        const std::string log = readFile(path);
        const std::size_t cut = tornAt + 3;
        ASSERT_EQ(log[cut - 1], static_cast<char>(keyLen >> 7)) << keyLen;
        const std::string d = storeWithLog(
            "zerotail2", log.substr(0, cut) + std::string(64, '\0'));

        ResultStore store(d);
        std::string err;
        ASSERT_TRUE(store.load(err)) << err;
        const StoreStats s = store.stats();
        EXPECT_EQ(s.liveRecords, 1u) << keyLen;
        EXPECT_EQ(s.recoveredDrops, 1u) << keyLen;
        EXPECT_EQ(s.corruptDrops, 0u) << keyLen;
        EXPECT_EQ(s.logBytes, tornAt) << keyLen;
        EXPECT_EQ(readFile(store.path()).size(), tornAt) << keyLen;
        std::string v;
        EXPECT_FALSE(store.get("", v)) << keyLen;
        ASSERT_TRUE(store.get("point 0@1", v)) << keyLen;
        EXPECT_EQ(v, "{record 0}");
    }
}

// ---- record text --------------------------------------------------------

TEST(Source, NormalizedRecordStripsProvenance)
{
    SimRunner runner(1);
    SimResult r = runner.run("compress", tinyConfig(), 1);
    SimResult again = runner.run("compress", tinyConfig(), 1);
    EXPECT_EQ(r.cacheHit, "computed");
    EXPECT_EQ(again.cacheHit, "memory");
    EXPECT_EQ(normalizedRecordText(r), normalizedRecordText(again));
}

// ---- daemon end to end --------------------------------------------------

/** An in-process daemon plus its serve() thread. */
class DaemonHarness
{
  public:
    DaemonHarness(const std::string &tag, unsigned shards,
                  bool with_store = true)
    {
        dir_ = scratchDir(tag);
        DaemonOptions opts;
        opts.socketPath = dir_ + "/sock";
        if (with_store)
            opts.storeDir = dir_ + "/store";
        opts.shards = shards;
        opts.shardThreads = 1;
        daemon_ = std::make_unique<Daemon>(opts);
        std::string err;
        started_ = daemon_->start(err);
        EXPECT_TRUE(started_) << err;
        if (started_)
            server_ = std::thread([this] { daemon_->serve(); });
    }

    ~DaemonHarness()
    {
        if (started_) {
            daemon_->requestShutdown();
            server_.join();
        }
    }

    const std::string &socketPath() const
    {
        return daemon_->options().socketPath;
    }

    bool started() const { return started_; }

    ResultStore *store() { return daemon_->store(); }

  private:
    std::string dir_;
    std::unique_ptr<Daemon> daemon_;
    std::thread server_;
    bool started_ = false;
};

ServiceClient::Point
point(const std::string &workload, const SimConfig &cfg)
{
    ServiceClient::Point p;
    p.workload = workload;
    p.scale = 1;
    p.config = cfg;
    return p;
}

TEST(Daemon, PingAndSweepProvenance)
{
    DaemonHarness harness("e2e", 1);
    ASSERT_TRUE(harness.started());

    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;
    EXPECT_TRUE(client.ping(err)) << err;

    std::vector<ServiceClient::Point> pts{
        point("compress", tinyConfig()),
        point("li", tinyConfig()),
    };
    std::vector<SimResult> cold;
    ServiceClient::SweepSummary summary;
    ASSERT_TRUE(client.sweep(pts, cold, summary, err)) << err;
    ASSERT_EQ(cold.size(), 2u);
    EXPECT_EQ(summary.points, 2u);
    EXPECT_EQ(summary.computed, 2u);
    EXPECT_EQ(cold[0].cacheHit, "computed");
    EXPECT_EQ(cold[0].workload, "compress");
    EXPECT_EQ(cold[1].workload, "li");
    EXPECT_EQ(cold[0].config, "tiny");

    // Same sweep again: everything from the persistent store.
    std::vector<SimResult> warm;
    ASSERT_TRUE(client.sweep(pts, warm, summary, err)) << err;
    EXPECT_EQ(summary.storeHits, 2u);
    EXPECT_EQ(summary.computed, 0u);
    ASSERT_EQ(warm.size(), 2u);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].cacheHit, "store");
        EXPECT_EQ(normalizedRecordText(cold[i]),
                  normalizedRecordText(warm[i]));
    }
}

TEST(Daemon, DuplicatePointsCoalesce)
{
    DaemonHarness harness("coalesce", 1, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;

    // Two identical points in one batch: one simulation, the
    // duplicate attaches to the in-flight future as a memory hit.
    std::vector<ServiceClient::Point> pts{
        point("compress", tinyConfig("dup-a")),
        point("compress", tinyConfig("dup-b")),
    };
    std::vector<SimResult> out;
    ServiceClient::SweepSummary summary;
    ASSERT_TRUE(client.sweep(pts, out, summary, err)) << err;
    EXPECT_EQ(summary.points, 2u);
    EXPECT_EQ(summary.computed, 1u);
    EXPECT_EQ(summary.memoryHits, 1u);
    ASSERT_EQ(out.size(), 2u);
    // Each result is relabeled with its requested config name.
    EXPECT_EQ(out[0].config, "dup-a");
    EXPECT_EQ(out[1].config, "dup-b");
    SimResult b = out[1];
    b.config = out[0].config;
    EXPECT_EQ(normalizedRecordText(out[0]), normalizedRecordText(b));
}

TEST(Daemon, RecordsIdenticalAcrossShardCounts)
{
    std::vector<ServiceClient::Point> pts;
    for (const char *w : {"compress", "li"}) {
        SimConfig all = tinyConfig("all");
        pts.push_back(point(w, all));
        SimConfig none = SimConfig::withOpts(FillOptimizations::none());
        none.name = "none";
        none.maxInsts = 2'000;
        pts.push_back(point(w, none));
    }

    auto runAt = [&pts](const std::string &tag, unsigned shards) {
        DaemonHarness harness(tag, shards);
        EXPECT_TRUE(harness.started());
        ServiceClient client;
        std::string err;
        EXPECT_TRUE(client.connect(harness.socketPath(), err)) << err;
        std::vector<SimResult> out;
        ServiceClient::SweepSummary summary;
        EXPECT_TRUE(client.sweep(pts, out, summary, err)) << err;
        EXPECT_EQ(summary.computed, pts.size());
        std::vector<std::string> records;
        for (const SimResult &r : out)
            records.push_back(normalizedRecordText(r));
        return records;
    };

    const auto one = runAt("shards1", 1);
    const auto four = runAt("shards4", 4);
    ASSERT_EQ(one.size(), pts.size());
    EXPECT_EQ(one, four);
}

/** A raw connection to @p path, for speaking the protocol by hand. */
int
rawConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** The next message's header, parsed (nullopt on any failure). */
std::optional<obs::JsonValue>
nextHeader(FrameReader &reader)
{
    std::string_view payload, header, body;
    if (reader.next(payload) != WireStatus::Ok ||
        !splitMessage(payload, header, body))
        return std::nullopt;
    return obs::JsonValue::tryParse(header);
}

TEST(Daemon, RefusesAnotherProtocolSchema)
{
    DaemonHarness harness("schema", 1, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    for (const char *hello :
         {"{\"type\": \"hello\", \"schema\": \"tcfill-svc-v1\"}",
          "{\"type\": \"hello\", \"schema\": \"tcfill-svc-v2\"}",
          "{\"type\": \"hello\"}"}) {
        int fd = rawConnect(harness.socketPath());
        std::string frame;
        appendMessage(frame, hello);
        ASSERT_TRUE(writeAll(fd, frame));
        FrameReader reader(fd);
        auto v = nextHeader(reader);
        ASSERT_TRUE(v.has_value()) << hello;
        EXPECT_EQ(v->at("type").str, "error");
        const std::string msg = v->at("message").str;
        EXPECT_NE(msg.find("unsupported protocol"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(kSvcSchema), std::string::npos) << msg;
        // The daemon hangs up after refusing.
        std::string_view payload;
        EXPECT_EQ(reader.next(payload), WireStatus::Eof);
        ::close(fd);
    }
}

// Clients may pipeline: bytes after the first frame stay buffered for
// the next, and the replies come back in request order.
TEST(Daemon, PipelinedRequestsAreAnsweredInOrder)
{
    DaemonHarness harness("pipeline", 1, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    int fd = rawConnect(harness.socketPath());
    std::string frames;
    appendMessage(frames, std::string("{\"type\": \"hello\", "
                                      "\"schema\": \"") +
                              kSvcSchema + "\"}");
    appendMessage(frames, "{\"type\": \"ping\"}");
    appendMessage(frames, "{\"type\": \"stats\"}");
    appendMessage(frames, "{\"type\": \"ping\"}");
    ASSERT_TRUE(writeAll(fd, frames));
    FrameReader reader(fd);
    for (const char *want : {"hello", "pong", "stats", "pong"}) {
        auto v = nextHeader(reader);
        ASSERT_TRUE(v.has_value()) << want;
        EXPECT_EQ(v->at("type").str, want);
    }
    ::close(fd);
}

TEST(Daemon, ProgressFramesOnlyOnRequest)
{
    DaemonHarness harness("progress", 1);
    ASSERT_TRUE(harness.started());

    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;
    auto progressFrames = [&] {
        std::string payload;
        EXPECT_TRUE(client.serverStats(payload, err)) << err;
        return obs::JsonValue::parse(payload)
            .at("service")
            .at("progressFrames")
            .u64();
    };

    std::vector<ServiceClient::Point> pts{
        point("compress", tinyConfig()),
        point("li", tinyConfig()),
    };
    std::vector<SimResult> out;
    ServiceClient::SweepSummary summary;
    ASSERT_TRUE(client.sweep(pts, out, summary, err)) << err;
    EXPECT_EQ(progressFrames(), 0u);

    std::vector<obs::SweepProgress> seen;
    ASSERT_TRUE(client.sweep(pts, out, summary, err,
                             [&seen](const obs::SweepProgress &p) {
                                 seen.push_back(p);
                             }))
        << err;
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].done, 2u);
    EXPECT_EQ(seen[1].points, 2u);
    EXPECT_EQ(seen[1].cacheHits, 2u);
    EXPECT_EQ(progressFrames(), 2u);
}

// A config the model cannot run is answered with an error frame that
// names the field, before any shard sees it: no shard dies, so the
// next sweep's points, spread over both shards, all simulate.
TEST(Daemon, InvalidConfigIsRejectedAndShardsSurvive)
{
    DaemonHarness harness("badcfg", 2, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;

    std::vector<SimResult> out;
    ServiceClient::SweepSummary summary;
    for (const BadKnob &k : kBadKnobs) {
        SimConfig cfg = tinyConfig();
        k.set(cfg);
        EXPECT_FALSE(client.sweep({point("compress", cfg)}, out, summary,
                                  err))
            << k.field;
        EXPECT_EQ(err.rfind(k.field, 0), 0u) << k.field << ": " << err;
    }

    std::vector<ServiceClient::Point> fresh;
    for (unsigned i = 0; i < 16; ++i) {
        SimConfig cfg = tinyConfig();
        cfg.maxInsts = 1'000 + 100 * i;
        fresh.push_back(point("compress", cfg));
    }
    ASSERT_TRUE(client.sweep(fresh, out, summary, err)) << err;
    EXPECT_EQ(summary.computed, 16u);
}

// A scale past the wire's bound would run a shard for hours; it is
// answered with an error frame that names the field, and both shards
// still simulate the next sweep.
TEST(Daemon, ScalePastTheBoundIsRejectedAndShardsSurvive)
{
    DaemonHarness harness("badscale", 2, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;

    std::vector<SimResult> out;
    ServiceClient::SweepSummary summary;
    for (unsigned scale : {kMaxSweepScale + 1, ~0u}) {
        ServiceClient::Point p = point("compress", tinyConfig());
        p.scale = scale;
        EXPECT_FALSE(client.sweep({p}, out, summary, err)) << scale;
        EXPECT_EQ(err.rfind("sweep.points: scale", 0), 0u) << err;
    }

    std::vector<ServiceClient::Point> fresh;
    for (unsigned i = 0; i < 8; ++i) {
        SimConfig cfg = tinyConfig();
        cfg.maxInsts = 1'000 + 100 * i;
        fresh.push_back(point("compress", cfg));
    }
    fresh.back().scale = kMaxSweepScale;
    ASSERT_TRUE(client.sweep(fresh, out, summary, err)) << err;
    EXPECT_EQ(summary.computed, 8u);
}

TEST(Daemon, RejectsUnknownWorkloadWithoutKillingTheSweep)
{
    DaemonHarness harness("badwl", 1, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;

    std::vector<ServiceClient::Point> pts{
        point("no-such-workload", tinyConfig()),
    };
    std::vector<SimResult> out;
    ServiceClient::SweepSummary summary;
    EXPECT_FALSE(client.sweep(pts, out, summary, err));
    EXPECT_NE(err.find("workload"), std::string::npos) << err;

    // The connection (and daemon) survive a rejected sweep.
    std::vector<ServiceClient::Point> good{
        point("compress", tinyConfig()),
    };
    ASSERT_TRUE(client.sweep(good, out, summary, err)) << err;
    EXPECT_EQ(summary.computed, 1u);
}

/** Send the message @p header on @p fd. */
void
sendMessage(int fd, std::string_view header)
{
    std::string frame;
    appendMessage(frame, header);
    ASSERT_TRUE(writeAll(fd, frame));
}

/** The header of a lookup of @p keys. */
std::string
lookupHeader(std::uint64_t id, const std::vector<std::string> &keys,
             bool progress = false)
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "lookup");
    w.field("id", id);
    w.field("progress", progress);
    w.beginArray("keys");
    for (const std::string &k : keys)
        w.value(k);
    w.endArray();
    w.endObject();
    return header;
}

/** Sweep @p p once through a fresh client: it is computed and stored. */
void
storePoint(DaemonHarness &harness, const ServiceClient::Point &p)
{
    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;
    std::vector<SimResult> out;
    ServiceClient::SweepSummary summary;
    ASSERT_TRUE(client.sweep({p}, out, summary, err)) << err;
    ASSERT_EQ(summary.computed, 1u);
}

// A lookup carries keys and nothing else. A stored key comes back as
// the stored record's own bytes; an unknown or empty key as a miss.
// Nothing is simulated for it.
TEST(Daemon, LookupServesStoredRecordsByKeyAlone)
{
    DaemonHarness harness("lookup", 1);
    ASSERT_TRUE(harness.started());
    const ServiceClient::Point stored = point("compress", tinyConfig());
    storePoint(harness, stored);
    const std::string key =
        simPointKey(stored.workload, stored.scale, stored.config);
    std::string record;
    ASSERT_TRUE(harness.store()->get(key, record));

    int fd = rawConnect(harness.socketPath());
    sendMessage(fd, lookupHeader(9, {"li@1#not-a-config", key, ""}));
    FrameReader reader(fd);
    std::string_view payload, header, body;
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_EQ(reader.next(payload), WireStatus::Ok);
        ASSERT_TRUE(splitMessage(payload, header, body));
        const obs::JsonValue v = obs::JsonValue::parse(header);
        EXPECT_EQ(v.at("id").u64(), 9u);
        EXPECT_EQ(v.at("index").u64(), i);
        if (i == 1) {
            EXPECT_EQ(v.at("type").str, "result");
            EXPECT_EQ(v.at("cacheHit").str, "store");
            EXPECT_TRUE(body == record) << "the stored bytes, unchanged";
        } else {
            EXPECT_EQ(v.at("type").str, "miss");
            EXPECT_TRUE(body.empty());
        }
    }
    auto done = nextHeader(reader);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->at("type").str, "done");
    EXPECT_EQ(done->at("points").u64(), 3u);
    EXPECT_EQ(done->at("storeHits").u64(), 1u);
    ::close(fd);

    ServiceClient client;
    std::string err, stats;
    ASSERT_TRUE(client.connect(harness.socketPath(), err)) << err;
    ASSERT_TRUE(client.serverStats(stats, err)) << err;
    const obs::JsonValue svc = obs::JsonValue::parse(stats).at("service");
    EXPECT_EQ(svc.at("lookups").u64(), 2u);    // the client's, then ours
    EXPECT_EQ(svc.at("sweeps").u64(), 1u);
    EXPECT_EQ(svc.at("storeHits").u64(), 1u);
    EXPECT_EQ(svc.at("dispatched").u64(), 1u);
}

// The parser used to recurse once per '[' with no limit: one frame of
// 200,000 of them overflowed a connection thread's stack and killed
// the daemon.
TEST(Daemon, DeeplyNestedHeaderIsRefusedAndDaemonSurvives)
{
    DaemonHarness harness("deep", 1, /*with_store=*/false);
    ASSERT_TRUE(harness.started());

    int fd = rawConnect(harness.socketPath());
    sendMessage(fd, std::string(200'000, '[') + std::string(200'000, ']'));
    sendMessage(fd, "{\"type\": \"ping\"}");
    FrameReader reader(fd);
    auto refused = nextHeader(reader);
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->at("type").str, "error");
    EXPECT_EQ(refused->at("message").str, "malformed message");
    auto pong = nextHeader(reader);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->at("type").str, "pong");
    ::close(fd);
}

// Lookups are the one request whose reply outgrows it: an empty key is
// 3 bytes of request and ~60 of miss frame. Malformed ones are refused
// whole; 100,000 empty keys get 100,000 misses, which the daemon sends
// in kReplyFlushBytes pieces; and the connection keeps working.
TEST(WireFuzz, HostileLookupsAreRefusedOrAnswered)
{
    DaemonHarness harness("hostilelookup", 1);
    ASSERT_TRUE(harness.started());
    int fd = rawConnect(harness.socketPath());
    FrameReader reader(fd);
    auto expectPong = [&] {
        sendMessage(fd, "{\"type\": \"ping\"}");
        auto v = nextHeader(reader);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->at("type").str, "pong");
    };

    for (const char *keys : {"", ", \"keys\": []", ", \"keys\": \"k\"",
                             ", \"keys\": {\"k\": 1}",
                             ", \"keys\": [\"k\", 7]", ", \"keys\": [null]",
                             ", \"keys\": [[\"k\"]]", ", \"keys\": [true]"}) {
        sendMessage(fd, std::string("{\"type\": \"lookup\", \"id\": 4") +
                            keys + "}");
        auto v = nextHeader(reader);
        ASSERT_TRUE(v.has_value()) << keys;
        EXPECT_EQ(v->at("type").str, "error") << keys;
        EXPECT_EQ(v->at("id").u64(), 4u) << keys;
        expectPong();
    }

    constexpr std::uint64_t kKeys = 100'000;
    std::string many = "{\"type\": \"lookup\", \"id\": 5, \"keys\": [\"\"";
    for (std::uint64_t i = 1; i < kKeys; ++i)
        many += ",\"\"";
    sendMessage(fd, many + "]}");
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        auto v = nextHeader(reader);
        ASSERT_TRUE(v.has_value()) << i;
        ASSERT_EQ(v->at("type").str, "miss") << i;
        ASSERT_EQ(v->at("index").u64(), i);
    }
    auto done = nextHeader(reader);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->at("type").str, "done");
    EXPECT_EQ(done->at("points").u64(), kKeys);
    EXPECT_EQ(done->at("storeHits").u64(), 0u);
    expectPong();
    ::close(fd);
}

// Seeded mutations of a lookup header sent to a live daemon holding
// one stored point: each is refused with an error frame or answered
// key by key with nothing but that point's record, and the daemon
// keeps serving the connection.
TEST(WireFuzz, MutatedLookupFramesAreAnsweredOrRefused)
{
    DaemonHarness harness("fuzzlookup", 1);
    ASSERT_TRUE(harness.started());
    const ServiceClient::Point stored = point("compress", tinyConfig());
    storePoint(harness, stored);
    const std::string key =
        simPointKey(stored.workload, stored.scale, stored.config);
    std::string record;
    ASSERT_TRUE(harness.store()->get(key, record));
    const std::string original =
        lookupHeader(3, {key, "li@1#other", ""}, true);

    int fd = rawConnect(harness.socketPath());
    FrameReader reader(fd);
    Random rng(0x100c);
    static const char *const kNotStrings[] = {"7", "null", "[]", "{}",
                                              "true", "-1e999"};
    for (int iter = 0; iter < 400; ++iter) {
        std::string m = original;
        const std::size_t at = rng.below(m.size());
        switch (iter % 6) {
          case 0:   // one byte replaced
            m[at] = static_cast<char>(rng.next());
            break;
          case 1:   // a range deleted
            m.erase(at, 1 + rng.below(32));
            break;
          case 2:   // a range duplicated (keys repeat, arrays grow)
            m.insert(at, m.substr(at, 1 + rng.below(300)));
            break;
          case 3: { // one key replaced by a value of another type
            const std::size_t q = m.find('"', m.find('[') + 1);
            m.replace(q, m.find('"', q + 1) - q + 1,
                      kNotStrings[rng.below(6)]);
            break;
          }
          case 4:   // the keys emptied
            m.replace(m.find('['), m.rfind(']') - m.find('[') + 1,
                      rng.below(2) ? "[]" : "[\"\"]");
            break;
          default:  // truncated
            m.resize(at);
            break;
        }
        sendMessage(fd, m);
        for (;;) {
            std::string_view payload, header, body;
            ASSERT_EQ(reader.next(payload), WireStatus::Ok) << iter;
            ASSERT_TRUE(splitMessage(payload, header, body)) << iter;
            auto v = obs::JsonValue::tryParse(header);
            ASSERT_TRUE(v.has_value()) << iter;
            const std::string type = v->at("type").str;
            if (type == "result") {
                EXPECT_EQ(v->at("cacheHit").str, "store") << iter;
                EXPECT_TRUE(body == record) << iter;
                continue;
            }
            if (type == "miss" || type == "progress")
                continue;
            ASSERT_TRUE(type == "done" || type == "error")
                << iter << ": " << type;
            break;
        }
    }
    sendMessage(fd, "{\"type\": \"ping\"}");
    auto pong = nextHeader(reader);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->at("type").str, "pong");
    ::close(fd);
}

// Two clients look up and sweep overlapping points while the shards
// compute and the daemon stores them. However a point is served —
// store, coalesced, a shard's cache or simulated — its record is the
// in-process SimRunner result. Runs under TSan in CI.
TEST(Daemon, ConcurrentLookupsAndSweepsAgree)
{
    DaemonHarness harness("concurrent", 2);
    ASSERT_TRUE(harness.started());

    std::vector<ServiceClient::Point> pts;
    for (const char *w : {"compress", "li"}) {
        for (PassMask mask : {kPassMaskNone, kPassMarkMoves, kPassMaskAll}) {
            SimConfig cfg = SimConfig::withOpts(optsFromPassMask(mask));
            cfg.name = passMaskName(mask);
            cfg.maxInsts = 2'000;
            pts.push_back(point(w, cfg));
        }
    }
    std::vector<std::string> want;
    {
        SimRunner runner(1);
        for (const ServiceClient::Point &p : pts) {
            SimResult r = runner.run(p.workload, p.config, p.scale);
            r.config = p.config.name;
            want.push_back(normalizedRecordText(r));
        }
    }

    auto client = [&](std::uint64_t seed) {
        ServiceClient c;
        std::string err;
        ASSERT_TRUE(c.connect(harness.socketPath(), err)) << err;
        Random rng(seed);
        for (int round = 0; round < 6; ++round) {
            // A seeded, overlapping subset in a seeded order.
            std::vector<std::size_t> pick;
            for (std::size_t i = 0; i < pts.size(); ++i) {
                if (rng.below(3) != 0)
                    pick.insert(pick.begin() + static_cast<std::ptrdiff_t>(
                                                  rng.below(pick.size() + 1)),
                                i);
            }
            if (pick.empty())
                pick.push_back(rng.below(pts.size()));
            std::vector<ServiceClient::Point> sub;
            for (std::size_t i : pick)
                sub.push_back(pts[i]);
            std::vector<SimResult> out;
            ServiceClient::SweepSummary summary;
            ASSERT_TRUE(c.sweep(sub, out, summary, err)) << err;
            ASSERT_EQ(out.size(), sub.size());
            EXPECT_EQ(summary.points, sub.size());
            EXPECT_EQ(summary.storeHits + summary.memoryHits +
                          summary.computed,
                      sub.size());
            for (std::size_t k = 0; k < out.size(); ++k) {
                const std::string &prov = out[k].cacheHit;
                EXPECT_TRUE(prov == "store" || prov == "memory" ||
                            prov == "computed")
                    << prov;
                EXPECT_EQ(normalizedRecordText(out[k]), want[pick[k]])
                    << sub[k].workload << " " << sub[k].config.name;
            }
        }
    };
    std::thread a(client, 1), b(client, 2);
    a.join();
    b.join();
}

} // namespace
