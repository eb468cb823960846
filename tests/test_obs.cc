/**
 * @file
 * Observability layer tests: JSON writer/parser round-trips, stats
 * group JSON hierarchy, SimResult serialization, per-instruction
 * pipeline tracing (event ordering and the trace-never-perturbs
 * guarantee), and byte-identical stats documents across SimRunner
 * thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "asm/builder.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "obs/host_prof.hh"
#include "obs/json.hh"
#include "obs/pipe_trace.hh"
#include "obs/timeline.hh"
#include "obs/trace_events.hh"
#include "sim/config_io.hh"
#include "sim/processor.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"
#include "sim/stats_io.hh"
#include "tracefile/replay.hh"
#include "workloads/suite.hh"

namespace tcfill
{
namespace
{

using obs::JsonDocument;
using obs::JsonNode;
using obs::JsonValue;
using obs::JsonWriter;
using obs::ObjectReader;

/** Counted loop with loads, stores and a bit of arithmetic. */
Program
loopProgram(int iters)
{
    ProgramBuilder pb("loop");
    Addr buf = pb.allocData(256, 8);
    pb.la(1, buf);
    pb.li(2, iters);
    pb.li(3, 0);
    Label top = pb.newLabel();
    pb.bind(top);
    pb.add(3, 3, 2);
    pb.andi(4, 2, 7);
    pb.slli(5, 4, 2);
    pb.lwx(6, 1, 5);
    pb.add(3, 3, 6);
    pb.swx(3, 1, 5);
    pb.move(7, 3);
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    return pb.finish();
}

// --------------------------------------------------------------------
// JSON writer / parser
// --------------------------------------------------------------------

TEST(Json, WriterParserRoundTrip)
{
    std::ostringstream ss;
    JsonWriter w(ss);
    w.beginObject();
    w.field("name", "trace \"cache\"\n\t\\");
    w.field("count", std::uint64_t(42));
    w.field("ratio", 0.375);
    w.field("neg", std::int64_t(-7));
    w.field("flag", true);
    w.beginArray("seq");
    w.value(std::uint64_t(1));
    w.value(std::uint64_t(2));
    w.value(std::uint64_t(3));
    w.endArray();
    w.beginObject("nested");
    w.field("deep", false);
    w.endObject();
    w.endObject();
    w.finish();

    JsonValue v = JsonValue::parse(ss.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("name").str, "trace \"cache\"\n\t\\");
    EXPECT_EQ(v.at("count").u64(), 42u);
    EXPECT_DOUBLE_EQ(v.at("ratio").num(), 0.375);
    EXPECT_DOUBLE_EQ(v.at("neg").num(), -7.0);
    EXPECT_TRUE(v.at("flag").boolean);
    ASSERT_TRUE(v.at("seq").isArray());
    ASSERT_EQ(v.at("seq").arr.size(), 3u);
    EXPECT_EQ(v.at("seq").arr[2].u64(), 3u);
    EXPECT_FALSE(v.at("nested").at("deep").boolean);
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(JsonValue::tryParse("{").has_value());
    EXPECT_FALSE(JsonValue::tryParse("{\"a\":}").has_value());
    EXPECT_FALSE(JsonValue::tryParse("[1,]").has_value());
    EXPECT_FALSE(JsonValue::tryParse("\"unterminated").has_value());
    EXPECT_FALSE(JsonValue::tryParse("{} trailing").has_value());
    EXPECT_TRUE(JsonValue::tryParse("  {\"a\": [1, 2]}  ").has_value());
}

// Untrusted wire payloads (client sweep points, job frames) funnel
// numbers through u64()/ObjectReader::integer(); negative, fractional
// or out-of-range doubles must parse-error, not cast (UB).
TEST(Json, IntegerReaderRejectsHostileNumbers)
{
    for (const char *text :
         {"{\"n\": -1}", "{\"n\": 1.5}", "{\"n\": 1e300}",
          "{\"n\": 4294967296}"}) {
        JsonDocument doc;
        ASSERT_TRUE(doc.parse(text)) << text;
        std::string err;
        ObjectReader r(doc.root(), "doc", err);
        std::uint32_t n = 0;
        EXPECT_FALSE(r.integer("n", n)) << text;
        EXPECT_NE(err.find("'n'"), std::string::npos) << err;
    }
    // In-range values still read back exactly, including u64's top end.
    JsonDocument doc;
    ASSERT_TRUE(doc.parse("{\"small\": 7, \"big\": 4294967295, "
                          "\"zero\": 0}"));
    std::string err;
    ObjectReader r(doc.root(), "doc", err);
    std::uint32_t small = 0, big = 0;
    std::uint64_t zero = 9;
    EXPECT_TRUE(r.integer("small", small));
    EXPECT_TRUE(r.integer("big", big));
    EXPECT_TRUE(r.integer("zero", zero));
    EXPECT_TRUE(r.finish()) << err;
    EXPECT_EQ(small, 7u);
    EXPECT_EQ(big, 4294967295u);
    EXPECT_EQ(zero, 0u);
    // Raw u64() degrades to 0 instead of UB on hostile values.
    EXPECT_EQ(JsonValue::parse("{\"n\": -3}").at("n").u64(), 0u);
    EXPECT_EQ(JsonValue::parse("{\"n\": 1e300}").at("n").u64(), 0u);
}

TEST(Json, NumberFormattingRoundTrips)
{
    // The writer's shortest-round-trip rendering must parse back to
    // the same double — that is what byte-stable documents rest on.
    for (double d : {0.0, 1.0, 0.1, 1.0 / 3.0, 12345.6789, 1e-9,
                     2.2250738585072014e-308}) {
        std::ostringstream ss;
        JsonWriter w(ss);
        w.beginObject();
        w.field("v", d);
        w.endObject();
        w.finish();
        JsonValue v = JsonValue::parse(ss.str());
        EXPECT_EQ(v.at("v").num(), d) << ss.str();
    }
}

/** One document exercising every escape and number form the writer has. */
void
writePinnedDocument(JsonWriter &w)
{
    w.beginObject();
    w.field("quote", "say \"hi\"");
    w.field("backslash", "a\\b/c");
    w.field("controls", std::string("\n\r\t\b\f\x01\x1f\x7f", 8));
    w.field("utf8", "caf\xc3\xa9");
    w.field("u64", std::numeric_limits<std::uint64_t>::max());
    w.field("i64", std::numeric_limits<std::int64_t>::min());
    w.field("zero", 0u);
    w.field("neg", -42);
    w.field("third", 1.0 / 3.0);
    w.field("sum", 0.1 + 0.2);
    w.field("tiny", 5e-324);
    w.field("big", 1e300);
    w.field("whole", 1e21);
    w.field("flag", false);
    w.beginArray("empty");
    w.endArray();
    w.beginObject("nested");
    w.beginArray("xs");
    w.value(-0.0);
    w.value("k\"ey");
    w.endArray();
    w.endObject();
    w.endObject();
    w.finish();
}

// Stats documents, golden fixtures and the result store's records are
// all this writer's bytes, so they are pinned here, identical for the
// string sink and the ostream sink.
TEST(Json, WriterBytesArePinnedForBothSinks)
{
    const std::string expected =
        "{\n"
        "  \"quote\": \"say \\\"hi\\\"\",\n"
        "  \"backslash\": \"a\\\\b/c\",\n"
        "  \"controls\": \"\\n\\r\\t\\u0008\\u000c\\u0001\\u001f\x7f" "\",\n"
        "  \"utf8\": \"caf\xc3" "\xa9\",\n"
        "  \"u64\": 18446744073709551615,\n"
        "  \"i64\": -9223372036854775808,\n"
        "  \"zero\": 0,\n"
        "  \"neg\": -42,\n"
        "  \"third\": 0.3333333333333333,\n"
        "  \"sum\": 0.30000000000000004,\n"
        "  \"tiny\": 5e-324,\n"
        "  \"big\": 1e+300,\n"
        "  \"whole\": 1e+21,\n"
        "  \"flag\": false,\n"
        "  \"empty\": [],\n"
        "  \"nested\": {\n"
        "    \"xs\": [\n"
        "      -0,\n"
        "      \"k\\\"ey\"\n"
        "    ]\n"
        "  }\n"
        "}\n";
    std::string direct;
    {
        JsonWriter w(direct);
        writePinnedDocument(w);
    }
    std::ostringstream ss;
    {
        JsonWriter w(ss);
        writePinnedDocument(w);
    }
    EXPECT_EQ(direct, expected);
    EXPECT_EQ(ss.str(), expected);

    JsonValue v = JsonValue::parse(direct);
    EXPECT_EQ(v.at("controls").str, std::string("\n\r\t\b\f\x01\x1f\x7f", 8));
    EXPECT_EQ(v.at("nested").at("xs").arr[1].str, "k\"ey");
}

// An ostream writer stages its output, but a finished document is in
// the stream as soon as the outermost scope closes, before finish()
// and while the writer is still alive.
TEST(Json, StreamHoldsDocumentOnceOutermostScopeCloses)
{
    std::ostringstream ss;
    JsonWriter w(ss);
    w.beginObject();
    w.field("a", 1u);
    w.beginArray("b");
    w.endArray();
    EXPECT_EQ(ss.str(), "");
    w.endObject();
    EXPECT_EQ(ss.str(), "{\n  \"a\": 1,\n  \"b\": []\n}");
}

TEST(Json, ParserHandlesEscapeRunsAndLongNumbers)
{
    JsonValue v = JsonValue::parse(
        "{\"s\": \"plain run \\\"q\\\" \\\\ \\u00e9\\n tail\"}");
    EXPECT_EQ(v.at("s").str, "plain run \"q\" \\ \xc3\xa9\n tail");
    // Longer than any number the writer emits: still one token.
    const std::string digits = "0." + std::string(80, '0') + "15";
    JsonValue n = JsonValue::parse("[" + digits + ", -12e-1]");
    EXPECT_EQ(n.arr[0].num(), 1.5e-81);
    EXPECT_EQ(n.arr[1].num(), -1.2);
    EXPECT_FALSE(JsonValue::tryParse("[1e]").has_value());
    EXPECT_FALSE(JsonValue::tryParse("[" + digits + "e]").has_value());
    EXPECT_FALSE(JsonValue::tryParse("[--1]").has_value());
    EXPECT_FALSE(JsonValue::tryParse("\"esc at end\\").has_value());
}

// A frame of nothing but '[' must not recurse the parser off its
// stack: nesting past kMaxJsonDepth is refused however deep it goes,
// and the cap's own depth still parses.
TEST(Json, DeepNestingIsRefused)
{
    auto objects = [](std::size_t depth) {
        std::string doc;
        for (std::size_t i = 0; i < depth; ++i)
            doc += "{\"a\": ";
        return doc + "1" + std::string(depth, '}');
    };
    const std::size_t cap = obs::kMaxJsonDepth;
    for (std::size_t depth : {cap + 1, std::size_t(100'000)}) {
        EXPECT_FALSE(JsonValue::tryParse(std::string(depth, '[') +
                                         std::string(depth, ']')))
            << depth;
        EXPECT_FALSE(JsonValue::tryParse(objects(depth))) << depth;
        EXPECT_FALSE(JsonValue::tryParse(std::string(depth, '[')))
            << depth;
    }

    auto arrays = JsonValue::tryParse(std::string(cap, '[') +
                                      std::string(cap, ']'));
    ASSERT_TRUE(arrays.has_value());
    const JsonValue *v = &*arrays;
    for (std::size_t i = 1; i < cap; ++i) {
        ASSERT_EQ(v->arr.size(), 1u) << i;
        v = &v->arr[0];
    }
    EXPECT_TRUE(v->isArray() && v->arr.empty());
    auto nested = JsonValue::tryParse(objects(cap));
    ASSERT_TRUE(nested.has_value());
    v = &*nested;
    for (std::size_t i = 0; i < cap; ++i)
        v = &v->at("a");
    EXPECT_EQ(v->u64(), 1u);
}

/** @p s for the pinned table: printable ASCII, other bytes as %hh. */
void
pinString(std::string &out, std::string_view s)
{
    out += "s'";
    for (const unsigned char c : s) {
        if (c >= 0x20 && c < 0x7f && !std::strchr("'\\\"%", c)) {
            out += static_cast<char>(c);
        } else {
            char hex[4];
            std::snprintf(hex, sizeof(hex), "%%%02x", c);
            out += hex;
        }
    }
    out += '\'';
}

/** @p d for the pinned table: its bit pattern. */
void
pinNumber(std::string &out, double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    char hex[20];
    std::snprintf(hex, sizeof(hex), "#%016llx",
                  static_cast<unsigned long long>(bits));
    out += hex;
}

/** A scanned value in the pinned table's notation. */
void
pinDump(std::string &out, JsonNode v)
{
    const char *sep = "";
    switch (v.kind()) {
      case obs::JsonKind::Null: out += "null"; break;
      case obs::JsonKind::Bool: out += v.boolean() ? "true" : "false"; break;
      case obs::JsonKind::Number: pinNumber(out, v.num()); break;
      case obs::JsonKind::String: pinString(out, v.str()); break;
      case obs::JsonKind::Array:
        out += '[';
        for (const JsonNode e : v.elements()) {
            out += std::exchange(sep, ",");
            pinDump(out, e);
        }
        out += ']';
        break;
      case obs::JsonKind::Object:
        out += '{';
        for (const obs::JsonMember &m : v.members()) {
            out += std::exchange(sep, ",");
            pinString(out, m.name);
            out += ':';
            pinDump(out, m.value);
        }
        out += '}';
        break;
    }
}

/** A materialized tree in the pinned table's notation. */
void
pinDump(std::string &out, const JsonValue &v)
{
    const char *sep = "";
    switch (v.kind) {
      case JsonValue::Kind::Null: out += "null"; break;
      case JsonValue::Kind::Bool: out += v.boolean ? "true" : "false"; break;
      case JsonValue::Kind::Number: pinNumber(out, v.number); break;
      case JsonValue::Kind::String: pinString(out, v.str); break;
      case JsonValue::Kind::Array:
        out += '[';
        for (const JsonValue &e : v.arr) {
            out += std::exchange(sep, ",");
            pinDump(out, e);
        }
        out += ']';
        break;
      case JsonValue::Kind::Object:
        out += '{';
        for (const auto &[name, m] : v.obj) {
            out += std::exchange(sep, ",");
            pinString(out, name);
            out += ':';
            pinDump(out, m);
        }
        out += '}';
        break;
    }
}

/** One input and the value it parsed to (nullptr: refused). */
struct PinnedCase
{
    std::string_view text;
    const char *value;
};

using namespace std::string_view_literals;

// Recorded from the recursive-descent parser this scanner replaced
// (commit 108f6d3): numbers as bit patterns, strings as bytes. Number
// literals, every escape, raw control bytes, literal prefixes,
// trailing garbage and structure.
const PinnedCase kPinnedCases[] = {
    {".5"sv, "#3fe0000000000000"},
    {"1."sv, "#3ff0000000000000"},
    {"00012"sv, "#4028000000000000"},
    {"1e"sv, nullptr},
    {"-"sv, nullptr},
    {"+1"sv, "#3ff0000000000000"},
    {"-0"sv, "#8000000000000000"},
    {"0"sv, "#0000000000000000"},
    {"-0.0"sv, "#8000000000000000"},
    {"1e-400"sv, "#0000000000000000"},
    {"-1e-400"sv, "#8000000000000000"},
    {"2e-324"sv, "#0000000000000000"},
    {"3e-324"sv, "#0000000000000001"},
    {"4.9e-324"sv, "#0000000000000001"},
    {"5e-324"sv, "#0000000000000001"},
    {"1e400"sv, nullptr},
    {"-1e400"sv, nullptr},
    {"1.7976931348623157e308"sv, "#7fefffffffffffff"},
    {"1.7976931348623158e308"sv, "#7fefffffffffffff"},
    {"1.7976931348623159e308"sv, nullptr},
    {"2.2250738585072011e-308"sv, "#000fffffffffffff"},
    {"2.2250738585072014e-308"sv, "#0010000000000000"},
    {"0.30000000000000004"sv, "#3fd3333333333334"},
    {"1.2345678901234567"sv, "#3ff3c0ca428c59fb"},
    {"12345678901234567"sv, "#4345ee2a2eb5a5c4"},
    {"9007199254740993"sv, "#4340000000000000"},
    {"-9007199254740993"sv, "#c340000000000000"},
    {"8.9884656743115795e307"sv, "#7fe0000000000000"},
    {"4.9406564584124654e-324"sv, "#0000000000000001"},
    {"1.0000000000000002"sv, "#3ff0000000000001"},
    {"0.1"sv, "#3fb999999999999a"},
    {"1e23"sv, "#44b52d02c7e14af6"},
    {"18446744073709551615"sv, "#43f0000000000000"},
    {"18446744073709551616"sv, "#43f0000000000000"},
    {"-9223372036854775808"sv, "#c3e0000000000000"},
    {"123456789012345678901234567890"sv, "#45f8ee90ff6c373e"},
    {"0.0000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000015"sv,
     "#2f26c401b5900e2a"},
    {"1E+2"sv, "#4059000000000000"},
    {"1e+"sv, nullptr},
    {"1e-"sv, nullptr},
    {"--1"sv, nullptr},
    {"-+1"sv, nullptr},
    {"+-1"sv, nullptr},
    {"++1"sv, nullptr},
    {"+.5"sv, "#3fe0000000000000"},
    {"1-2"sv, nullptr},
    {"1.2.3"sv, nullptr},
    {"0x10"sv, nullptr},
    {"."sv, nullptr},
    {"-."sv, nullptr},
    {"-.5"sv, "#bfe0000000000000"},
    {"-5."sv, "#c014000000000000"},
    {"e5"sv, nullptr},
    {"E5"sv, nullptr},
    {"-e5"sv, nullptr},
    {"1e5e5"sv, nullptr},
    {"1.e3"sv, "#408f400000000000"},
    {".e3"sv, nullptr},
    {"1ee3"sv, nullptr},
    {"-01"sv, "#bff0000000000000"},
    {"1e0400"sv, nullptr},
    {"1e-0400"sv, "#0000000000000000"},
    {"[1,.5,-0,+2]"sv,
     "[#3ff0000000000000,#3fe0000000000000,#8000000000000000,"
     "#4000000000000000]"},
    {"[1e]"sv, nullptr},
    {"[-]"sv, nullptr},
    {"\"\\\"\""sv, "s'%22'"},
    {"\"\\\\\""sv, "s'%5c'"},
    {"\"\\/\""sv, "s'/'"},
    {"\"\\b\""sv, "s'%08'"},
    {"\"\\f\""sv, "s'%0c'"},
    {"\"\\n\""sv, "s'%0a'"},
    {"\"\\r\""sv, "s'%0d'"},
    {"\"\\t\""sv, "s'%09'"},
    {"\"\\u0041\""sv, "s'A'"},
    {"\"\\u00e9\""sv, "s'%c3%a9'"},
    {"\"\\u00E9\""sv, "s'%c3%a9'"},
    {"\"\\u007f\""sv, "s'%7f'"},
    {"\"\\u0080\""sv, "s'%c2%80'"},
    {"\"\\u07FF\""sv, "s'%df%bf'"},
    {"\"\\u0800\""sv, "s'%e0%a0%80'"},
    {"\"\\u20AC\""sv, "s'%e2%82%ac'"},
    {"\"\\uFFFF\""sv, "s'%ef%bf%bf'"},
    {"\"\\uD83D\\uDE00\""sv, "s'%ed%a0%bd%ed%b8%80'"},
    {"\"\\uDC00\""sv, "s'%ed%b0%80'"},
    {"\"\\u0000\""sv, "s'%00'"},
    {"\"a\\u0000b\""sv, "s'a%00b'"},
    {"\"x\\u00e9\\n\\\"y\""sv, "s'x%c3%a9%0a%22y'"},
    {"\"\\u12G4\""sv, nullptr},
    {"\"\\uZZZZ\""sv, nullptr},
    {"\"\\u\""sv, nullptr},
    {"\"\\u1\""sv, nullptr},
    {"\"\\u12\""sv, nullptr},
    {"\"\\u123\""sv, nullptr},
    {"\"\\u12"sv, nullptr},
    {"\"\\u123"sv, nullptr},
    {"\"\\u1234"sv, nullptr},
    {"\"\\x41\""sv, nullptr},
    {"\"\\a\""sv, nullptr},
    {"\"\\U0041\""sv, nullptr},
    {"\"\\'\""sv, nullptr},
    {"\"\\0\""sv, nullptr},
    {"\"\\"sv, nullptr},
    {"\"\\\""sv, nullptr},
    {"\"abc"sv, nullptr},
    {"\"\""sv, "s''"},
    {"\""sv, nullptr},
    {"\"a\001b\""sv, "s'a%01b'"},
    {"\"\012\""sv, "s'%0a'"},
    {"\"\011\""sv, "s'%09'"},
    {"\"\000\""sv, "s'%00'"},
    {"\"\037\""sv, "s'%1f'"},
    {"\"\177\""sv, "s'%7f'"},
    {"\"\377\376\""sv, "s'%ff%fe'"},
    {"\"caf\303\251\""sv, "s'caf%c3%a9'"},
    {"[\"\015\012\"]"sv, "[s'%0d%0a']"},
    {"true"sv, "true"},
    {"false"sv, "false"},
    {"null"sv, "null"},
    {"tru"sv, nullptr},
    {"nul"sv, nullptr},
    {"fals"sv, nullptr},
    {"t"sv, nullptr},
    {"n"sv, nullptr},
    {"f"sv, nullptr},
    {"True"sv, nullptr},
    {"NULL"sv, nullptr},
    {"truex"sv, nullptr},
    {"nullnull"sv, nullptr},
    {"true false"sv, nullptr},
    {"[tru]"sv, nullptr},
    {"[nul]"sv, nullptr},
    {"[true,false,null]"sv, "[true,false,null]"},
    {"{\"a\":tru}"sv, nullptr},
    {"[true1]"sv, nullptr},
    {"-true"sv, nullptr},
    {"{} x"sv, nullptr},
    {"1 2"sv, nullptr},
    {"[1] ]"sv, nullptr},
    {"\"a\"b"sv, nullptr},
    {"{}{}"sv, nullptr},
    {"[]]"sv, nullptr},
    {"{}}"sv, nullptr},
    {"1,"sv, nullptr},
    {"  1  "sv, "#3ff0000000000000"},
    {"\011\015\012 1 \012"sv, "#3ff0000000000000"},
    {"\0141"sv, nullptr},
    {"\0131"sv, nullptr},
    {"1\014"sv, nullptr},
    {"1\000"sv, nullptr},
    {""sv, nullptr},
    {" "sv, nullptr},
    {"{"sv, nullptr},
    {"}"sv, nullptr},
    {"["sv, nullptr},
    {"]"sv, nullptr},
    {"[1,]"sv, nullptr},
    {"[,1]"sv, nullptr},
    {"[1 2]"sv, nullptr},
    {"{\"a\":1,}"sv, nullptr},
    {"{\"a\" 1}"sv, nullptr},
    {"{\"a\":}"sv, nullptr},
    {"{1:2}"sv, nullptr},
    {"{\"a\":1 \"b\":2}"sv, nullptr},
    {"{\"a\":1,\"a\":2}"sv, "{s'a':#3ff0000000000000,s'a':#4000000000000000}"},
    {"{ \"k\" : [ 1 , { } , [ ] ] }"sv, "{s'k':[#3ff0000000000000,{},[]]}"},
    {"{\"a\\u0062\":1}"sv, "{s'ab':#3ff0000000000000}"},
    {"{\"\":0}"sv, "{s'':#0000000000000000}"},
    {"{\"a\":{\"b\":[{}]}}"sv, "{s'a':{s'b':[{}]}}"},
    {"[[],[[]]]"sv, "[[],[[]]]"},
    {"{,}"sv, nullptr},
    {"{\"a\"}"sv, nullptr},
    {"[\"a\":1]"sv, nullptr},
};

// The scanner accepts and refuses exactly what its predecessor did,
// and reads every value to the same bits; the materialized tree
// agrees with the document.
TEST(Json, EdgeCasesMatchPinnedTable)
{
    std::vector<PinnedCase> cases(std::begin(kPinnedCases),
                                  std::end(kPinnedCases));
    // Depth 64 against 65, as arrays, objects and both, and an
    // unclosed stack at the cap.
    auto objects = [](std::size_t depth, bool pin) {
        std::string doc;
        for (std::size_t i = 0; i < depth; ++i)
            doc += pin ? "{s'a':" : "{\"a\":";
        return doc + (pin ? "#3ff0000000000000" : "1") +
            std::string(depth, '}');
    };
    const std::string arrays64 = std::string(64, '[') + std::string(64, ']');
    const std::string arrays65 = std::string(65, '[') + std::string(65, ']');
    const std::string objects64 = objects(64, false);
    const std::string objects64Pin = objects(64, true);
    const std::string objects65 = objects(65, false);
    const std::string nested64 = "[" + objects(63, false) + "]";
    const std::string nested64Pin = "[" + objects(63, true) + "]";
    const std::string nested65 = "[" + objects(64, false) + "]";
    const std::string open64 = std::string(64, '[') + std::string(64, ' ');
    cases.push_back({arrays64, arrays64.c_str()});
    cases.push_back({arrays65, nullptr});
    cases.push_back({objects64, objects64Pin.c_str()});
    cases.push_back({objects65, nullptr});
    cases.push_back({nested64, nested64Pin.c_str()});
    cases.push_back({nested65, nullptr});
    cases.push_back({open64, nullptr});

    JsonDocument doc;
    for (const PinnedCase &c : cases) {
        const std::string shown(c.text.substr(0, 80));
        const bool parsed = doc.parse(c.text);
        const auto tree = JsonValue::tryParse(c.text);
        ASSERT_EQ(parsed, c.value != nullptr) << shown;
        ASSERT_EQ(tree.has_value(), parsed) << shown;
        if (!parsed)
            continue;
        std::string scanned, materialized;
        pinDump(scanned, doc.root());
        pinDump(materialized, *tree);
        EXPECT_EQ(scanned, c.value) << shown;
        EXPECT_EQ(materialized, c.value) << shown;
    }
}

/**
 * Re-encode a scanned value with the writer. An integral number takes
 * the writer's integer form, as every counter does.
 */
void
reencode(JsonWriter &w, JsonNode v)
{
    switch (v.kind()) {
      case obs::JsonKind::Null:
        ADD_FAILURE() << "the writer emits no null";
        break;
      case obs::JsonKind::Bool:
        w.value(v.boolean());
        break;
      case obs::JsonKind::Number: {
        const double d = v.num();
        if (d != std::floor(d) || !(std::fabs(d) < 0x1p63) ||
            (d == 0 && std::signbit(d)))
            w.value(d);
        else if (d >= 0)
            w.value(static_cast<std::uint64_t>(d));
        else
            w.value(static_cast<std::int64_t>(d));
        break;
      }
      case obs::JsonKind::String:
        w.value(v.str());
        break;
      case obs::JsonKind::Array:
        w.beginArray();
        for (const JsonNode e : v.elements())
            reencode(w, e);
        w.endArray();
        break;
      case obs::JsonKind::Object:
        w.beginObject();
        for (const obs::JsonMember &m : v.members()) {
            w.key(m.name);
            reencode(w, m.value);
        }
        w.endObject();
        break;
    }
}

/** @p text scanned and re-encoded (a trailing newline kept). */
std::string
scanAndReencode(const std::string &text)
{
    JsonDocument doc;
    EXPECT_TRUE(doc.parse(text)) << text.substr(0, 200);
    std::string out;
    JsonWriter w(out);
    reencode(w, doc.root());
    if (!text.empty() && text.back() == '\n')
        w.finish();
    return out;
}

// Everything the writer produces reads back to the same bytes: every
// pinned stats document, each kernel's result record (plain, and with
// a timeline and an oracle policy) and a config for every pass mask,
// through the document and through the typed readers.
TEST(Json, WriterDocumentsRoundTripByteForByte)
{
    unsigned golden = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(TCFILL_GOLDEN_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        std::ifstream is(entry.path());
        std::stringstream ss;
        ss << is.rdbuf();
        EXPECT_EQ(scanAndReencode(ss.str()), ss.str()) << entry.path();
        ++golden;
    }
    EXPECT_GE(golden, 6u);

    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "roundtrip";
    cfg.maxInsts = 3'000;
    SimConfig traced = cfg;
    traced.statsInterval = 500;
    traced.fill.policy.kind = FillPolicyKind::Oracle;
    traced.fill.policy.oracleMap = "0=all,*=moves+placement";
    SimRunner runner(2);
    std::vector<std::shared_future<SimResult>> runs;
    for (const workloads::Workload &w : workloads::suite())
        runs.push_back(runner.submit(w.name, cfg, 1));
    runs.push_back(runner.submit("compress", traced, 1));
    for (auto &run : runs) {
        const std::string record = resultRecordText(run.get());
        EXPECT_EQ(scanAndReencode(record), record);
        SimResult back;
        std::string err;
        ASSERT_TRUE(resultFromRecordText(record, back, err)) << err;
        EXPECT_EQ(resultRecordText(back), record);
    }
    ASSERT_TRUE(runs.back().get().timeline && runs.back().get().policy);

    for (unsigned mask = 0; mask <= kPassMaskEvery; ++mask) {
        SimConfig c = SimConfig::withOpts(
            optsFromPassMask(static_cast<PassMask>(mask)));
        c.name = "mask " + std::to_string(mask);
        std::string text;
        {
            JsonWriter w(text);
            configToJson(w, c);
        }
        EXPECT_EQ(scanAndReencode(text), text) << mask;
        JsonDocument doc;
        ASSERT_TRUE(doc.parse(text));
        SimConfig back;
        std::string err;
        ASSERT_TRUE(configFromJson(doc.root(), back, err)) << err;
        std::string again;
        {
            JsonWriter w(again);
            configToJson(w, back);
        }
        EXPECT_EQ(again, text) << mask;
    }
}

/** @p v as compact JSON text (every kind, null included). */
void
writeCompact(std::string &out, const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        obs::appendJsonNumber(out, v.number);
        break;
      case JsonValue::Kind::String:
        obs::jsonQuote(out, v.str);
        break;
      case JsonValue::Kind::Array:
        out += '[';
        for (std::size_t i = 0; i < v.arr.size(); ++i) {
            if (i)
                out += ',';
            writeCompact(out, v.arr[i]);
        }
        out += ']';
        break;
      case JsonValue::Kind::Object:
        out += '{';
        for (std::size_t i = 0; i < v.obj.size(); ++i) {
            if (i)
                out += ',';
            obs::jsonQuote(out, v.obj[i].first);
            out += ':';
            writeCompact(out, v.obj[i].second);
        }
        out += '}';
        break;
    }
}

// Seeded mutation fuzz of the parser over the documents that cross a
// trust boundary: a result record, a config and a sweep header. Every
// mutant must parse to nothing, or to a value that re-serializes and
// re-parses to the same value; never crash, hang or overflow the
// stack (bracket bombs nest far past kMaxJsonDepth).
TEST(JsonFuzz, MutatedDocumentsRejectOrRoundTrip)
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "fuzz";
    cfg.maxInsts = 2'000;
    SimRunner runner(1);
    std::string header;
    {
        JsonWriter w(header);
        w.beginObject();
        w.field("type", "sweep");
        w.field("id", std::uint64_t(7));
        w.field("progress", true);
        w.beginArray("points");
        w.beginObject();
        w.field("workload", "compress");
        w.field("scale", 1u);
        w.key("config");
        configToJson(w, cfg);
        w.endObject();
        w.endArray();
        w.endObject();
    }
    std::string config;
    {
        JsonWriter w(config);
        configToJson(w, cfg);
    }
    const std::string docs[] = {
        resultRecordText(runner.run("compress", cfg, 1)), config, header};

    Random rng(0x15f00d);
    for (int iter = 0; iter < 3000; ++iter) {
        const std::string &doc = docs[iter % 3];
        std::string m = doc;
        const std::size_t at = rng.below(m.size());
        switch ((iter / 3) % 6) {
          case 0:   // one byte replaced
            m[at] = static_cast<char>(rng.next());
            break;
          case 1:   // a range deleted
            m.erase(at, 1 + rng.below(64));
            break;
          case 2:   // a range duplicated in place
            m.insert(at, m.substr(at, 1 + rng.below(64)));
            break;
          case 3: { // a bracket bomb, closed or not
            const std::size_t n = 1 + rng.below(rng.below(2) ? 100 : 200'000);
            const char open = rng.below(2) ? '[' : '{';
            std::string bomb(n, open);
            if (open == '[' && rng.below(2))
                bomb += std::string(n, ']');
            m.insert(at, bomb);
            break;
          }
          case 4: { // a number literal out of the double range
            static const char *const kHuge[] = {"1e999", "-1e400",
                                                "1e-400", "-0"};
            const std::size_t digit = m.find_first_of("0123456789", at);
            if (digit != std::string::npos)
                m.replace(digit, 1, kHuge[rng.below(4)]);
            break;
          }
          default:  // truncation
            m.resize(at);
            break;
        }

        const auto v = JsonValue::tryParse(m);
        if (!v)
            continue;
        std::string text;
        writeCompact(text, *v);
        const auto again = JsonValue::tryParse(text);
        ASSERT_TRUE(again.has_value()) << "iteration " << iter << ": "
                                       << text.substr(0, 200);
        std::string echo;
        writeCompact(echo, *again);
        ASSERT_EQ(echo, text) << "iteration " << iter;
    }
}

// --------------------------------------------------------------------
// stats::Group JSON
// --------------------------------------------------------------------

TEST(StatsGroup, DumpJsonNestsDottedNames)
{
    stats::Group g("proc");
    stats::Counter hits, misses;
    ++hits; ++hits; ++hits;
    ++misses;
    g.addCounter("l1i.hits", hits, "hits");
    g.addCounter("l1i.misses", misses, "misses");
    g.addFormula("l1i.hitRate", [&] {
        return static_cast<double>(hits.value()) /
               static_cast<double>(hits.value() + misses.value());
    }, "rate");
    g.addCounter("retired", hits, "top-level alias");

    std::ostringstream ss;
    g.dumpJson(ss);
    JsonValue v = JsonValue::parse(ss.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("l1i").at("hits").u64(), 3u);
    EXPECT_EQ(v.at("l1i").at("misses").u64(), 1u);
    EXPECT_DOUBLE_EQ(v.at("l1i").at("hitRate").num(), 0.75);
    EXPECT_EQ(v.at("retired").u64(), 3u);
}

TEST(StatsGroup, ProcessorDumpStatsJsonParses)
{
    Program p = loopProgram(200);
    Processor proc(p, SimConfig::withOpts(FillOptimizations::all()));
    proc.run();
    std::ostringstream ss;
    proc.dumpStatsJson(ss);
    JsonValue v = JsonValue::parse(ss.str());
    ASSERT_TRUE(v.isObject());
    // Spot-check a nested group registered by a subcomponent.
    EXPECT_GT(v.at("rename").at("reads").u64(), 0u);
    EXPECT_GT(v.at("rename").at("writes").u64(), 0u);
}

// --------------------------------------------------------------------
// SimResult JSON
// --------------------------------------------------------------------

TEST(SimResultJson, RoundTripMatchesRun)
{
    Program p = loopProgram(300);
    SimResult r = simulate(p, SimConfig::withOpts(
                                  FillOptimizations::all()));
    r.config = "all";

    std::ostringstream ss;
    JsonWriter w(ss);
    r.toJson(w, /*include_host=*/true);
    w.finish();

    JsonValue v = JsonValue::parse(ss.str());
    EXPECT_EQ(v.at("config").str, "all");
    EXPECT_EQ(v.at("retired").u64(), r.retired);
    EXPECT_EQ(v.at("cycles").u64(), r.cycles);
    EXPECT_EQ(v.at("ipc").num(), r.ipc());
    EXPECT_EQ(v.at("tcHits").u64(), r.tcHits);
    EXPECT_EQ(v.at("tcHitRate").num(), r.tcHitRate());
    EXPECT_EQ(v.at("dynMoves").u64(), r.dynMoves);
    EXPECT_EQ(v.at("fracTransformed").num(), r.fracTransformed());
    EXPECT_EQ(v.at("cacheHit").str, "computed");
    EXPECT_EQ(v.at("host").at("hostSeconds").num(), r.hostSeconds);

    // Deterministic mode omits the wall-clock section.
    std::ostringstream det;
    JsonWriter wd(det);
    r.toJson(wd, /*include_host=*/false);
    wd.finish();
    EXPECT_EQ(JsonValue::parse(det.str()).find("host"), nullptr);
}

// --------------------------------------------------------------------
// Pipeline tracer
// --------------------------------------------------------------------

TEST(PipeTrace, EventOrderingPerInstruction)
{
    Program p = loopProgram(300);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    obs::RecordingPipeTracer rec;
    Processor proc(p, cfg);
    proc.setTracer(&rec);
    SimResult r = proc.run();

    ASSERT_FALSE(rec.insts.empty());

    struct Life
    {
        std::map<obs::PipeStage, Cycle> stamp;
        std::map<obs::PipeStage, unsigned> count;
    };
    std::map<InstSeqNum, Life> lives;
    for (const obs::PipeEvent &ev : rec.insts) {
        lives[ev.seq].stamp[ev.stage] = ev.cycle;
        ++lives[ev.seq].count[ev.stage];
    }

    std::uint64_t retired = 0;
    for (const auto &[seq, life] : lives) {
        auto has = [&](obs::PipeStage s) {
            return life.stamp.count(s) != 0;
        };
        auto at = [&](obs::PipeStage s) { return life.stamp.at(s); };
        if (!has(obs::PipeStage::Retire)) {
            // Squashed or still in flight at the run limit.
            continue;
        }
        ++retired;
        SCOPED_TRACE(seq);
        // A retired instruction went through each stage exactly once
        // and never reported a squash.
        for (auto s : {obs::PipeStage::Fetch, obs::PipeStage::Rename,
                       obs::PipeStage::Issue, obs::PipeStage::Retire}) {
            ASSERT_TRUE(has(s));
            EXPECT_EQ(life.count.at(s), 1u);
        }
        EXPECT_FALSE(has(obs::PipeStage::Squash));
        // Lifecycle stamps are monotone through the pipeline.
        EXPECT_LE(at(obs::PipeStage::Fetch), at(obs::PipeStage::Rename));
        EXPECT_LE(at(obs::PipeStage::Rename), at(obs::PipeStage::Issue));
        EXPECT_LE(at(obs::PipeStage::Issue), at(obs::PipeStage::Retire));
        if (has(obs::PipeStage::Execute)) {
            EXPECT_LE(at(obs::PipeStage::Issue),
                      at(obs::PipeStage::Execute));
            EXPECT_LE(at(obs::PipeStage::Execute),
                      at(obs::PipeStage::Complete));
        }
    }
    // Every architected retirement produced a Retire event.
    EXPECT_EQ(retired, r.retired);
}

TEST(PipeTrace, FillEventsCountTransforms)
{
    Program p = loopProgram(300);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    obs::RecordingPipeTracer rec;
    Processor proc(p, cfg);
    proc.setTracer(&rec);
    SimResult r = proc.run();

    ASSERT_FALSE(rec.fills.empty());
    EXPECT_EQ(rec.fills.size(), r.segmentsBuilt);
    unsigned moves = 0;
    for (const obs::FillEvent &ev : rec.fills) {
        EXPECT_GT(ev.insts, 0u);
        EXPECT_GT(ev.blocks, 0u);
        EXPECT_LE(ev.movesMarked, ev.insts);
        EXPECT_LE(ev.reassociated, ev.insts);
        EXPECT_LE(ev.deadElided, ev.insts);
        moves += ev.movesMarked;
    }
    // The loop body contains an architectural move; with markMoves on
    // the fill unit must have annotated some.
    EXPECT_GT(moves, 0u);
}

TEST(PipeTrace, TracedAnnotationsMatchResultCounters)
{
    Program p = loopProgram(300);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    obs::RecordingPipeTracer rec;
    Processor proc(p, cfg);
    proc.setTracer(&rec);
    SimResult r = proc.run();

    std::uint64_t retired_moves = 0;
    for (const obs::PipeEvent &ev : rec.insts) {
        if (ev.stage == obs::PipeStage::Retire && ev.moveMarked)
            ++retired_moves;
    }
    EXPECT_EQ(retired_moves, r.dynMoves);
}

TEST(PipeTrace, JsonlEmitterProducesParseableLines)
{
    Program p = loopProgram(100);
    std::ostringstream ss;
    obs::JsonlPipeTracer tracer(ss);
    Processor proc(p, SimConfig::withOpts(FillOptimizations::all()));
    proc.setTracer(&tracer);
    proc.run();

    EXPECT_GT(tracer.events(), 0u);
    std::istringstream lines(ss.str());
    std::string line;
    std::uint64_t n = 0;
    while (std::getline(lines, line)) {
        ASSERT_TRUE(JsonValue::tryParse(line).has_value()) << line;
        ++n;
    }
    EXPECT_EQ(n, tracer.events());
}

TEST(PipeTrace, TracingNeverPerturbsTiming)
{
    // The acceptance bar: a traced run is bit-identical to an
    // untraced run of the same point.
    Program p = loopProgram(300);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());

    Processor plain(p, cfg);
    SimResult base = plain.run();

    obs::RecordingPipeTracer rec;
    Processor traced(p, cfg);
    traced.setTracer(&rec);
    SimResult r = traced.run();

    EXPECT_EQ(r.retired, base.retired);
    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.ipc(), base.ipc());  // bitwise, not approximate
    EXPECT_EQ(r.tcHits, base.tcHits);
    EXPECT_EQ(r.mispredicts, base.mispredicts);
    EXPECT_EQ(r.dynMoves, base.dynMoves);
    EXPECT_EQ(r.dynReassoc, base.dynReassoc);
}

// --------------------------------------------------------------------
// Stats documents
// --------------------------------------------------------------------

namespace
{

/** Run a fixed submission sequence through a pool; return the doc. */
std::string
statsDocument(unsigned threads)
{
    SimRunner pool(threads);
    SimConfig base = SimConfig::withOpts(FillOptimizations::none());
    base.name = "baseline";
    base.maxInsts = 20'000;
    SimConfig all = SimConfig::withOpts(FillOptimizations::all());
    all.name = "all";
    all.maxInsts = 20'000;

    std::vector<SimResult> results;
    for (const char *w : {"compress", "li"}) {
        for (const SimConfig *cfg : {&base, &all})
            results.push_back(pool.run(w, *cfg));
    }
    // One deliberate repeat: exercises the cacheHit provenance path.
    results.push_back(pool.run("compress", base));

    obs::SweepProgress snap = pool.progress();
    std::ostringstream ss;
    writeStatsJson(ss, "test_obs", results, &snap,
                   /*include_host=*/false);
    return ss.str();
}

} // namespace

TEST(StatsJson, ByteIdenticalAcrossThreadCounts)
{
    const std::string doc1 = statsDocument(1);
    const std::string doc8 = statsDocument(8);
    EXPECT_EQ(doc1, doc8);

    JsonValue v = JsonValue::parse(doc1);
    EXPECT_EQ(v.at("schema").str, "tcfill-stats-v1");
    EXPECT_EQ(v.at("generator").str, "test_obs");
    ASSERT_TRUE(v.at("results").isArray());
    ASSERT_EQ(v.at("results").arr.size(), 5u);
    // Deterministic documents carry no wall-clock section anywhere.
    EXPECT_EQ(v.find("host"), nullptr);
    for (const JsonValue &r : v.at("results").arr)
        EXPECT_EQ(r.find("host"), nullptr);
    // Sweep counters: 5 submissions (4 distinct + 1 cache hit).
    const JsonValue &sweep = v.at("sweep");
    EXPECT_EQ(sweep.at("points").u64(), 5u);
    EXPECT_EQ(sweep.at("done").u64(), 5u);
    EXPECT_EQ(sweep.at("cacheHits").u64(), 1u);
    EXPECT_EQ(sweep.at("liveRuns").u64(), 4u);
    // Provenance: the repeat is flagged, the first run is not.
    EXPECT_EQ(v.at("results").arr[0].at("cacheHit").str, "computed");
    EXPECT_EQ(v.at("results").arr[4].at("cacheHit").str, "memory");
}

// --------------------------------------------------------------------
// Interval timeline telemetry
// --------------------------------------------------------------------

namespace
{

/** Deterministic JSON body of one result (no host section). */
std::string
bodyJson(const SimResult &res)
{
    std::ostringstream ss;
    JsonWriter w(ss);
    res.toJson(w, /*include_host=*/false);
    w.finish();
    return ss.str();
}

} // namespace

TEST(Timeline, IntervalsTileTheRunExactly)
{
    // Run length deliberately not a multiple of the interval: the
    // trailing partial interval must still close, and the spans must
    // tile both retired instructions and total cycles with no gap.
    Program p = loopProgram(400);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.statsInterval = 1000;
    SimResult res = simulate(p, cfg);

    ASSERT_TRUE(res.timeline);
    const obs::TimelineData &tl = *res.timeline;
    EXPECT_EQ(tl.interval, 1000u);
    EXPECT_NE(res.retired % tl.interval, 0u);
    ASSERT_FALSE(tl.intervals.empty());
    ASSERT_FALSE(tl.counters.empty());

    InstSeqNum insts = 0;
    Cycle cycles = 0;
    for (const obs::TimelineInterval &iv : tl.intervals) {
        EXPECT_EQ(iv.startInst, insts);
        EXPECT_EQ(iv.startCycle, cycles);
        EXPECT_GT(iv.insts, 0u);
        EXPECT_LE(iv.insts, tl.interval);
        EXPECT_EQ(iv.deltas.size(), tl.counters.size());
        EXPECT_EQ(iv.phase, -1);    // phase tagging off
        insts += iv.insts;
        cycles += iv.cycles;
    }
    EXPECT_EQ(insts, res.retired);
    EXPECT_EQ(cycles, res.cycles);

    // Every full interval holds exactly `interval` instructions.
    for (std::size_t i = 0; i + 1 < tl.intervals.size(); ++i)
        EXPECT_EQ(tl.intervals[i].insts, tl.interval);

    // The retired-instruction counter's deltas account for every
    // instruction (it is one of the timing counters by construction).
    std::size_t retired_col = tl.counters.size();
    for (std::size_t i = 0; i < tl.counters.size(); ++i) {
        if (tl.counters[i] == "retire.retired")
            retired_col = i;
    }
    ASSERT_LT(retired_col, tl.counters.size());
    std::uint64_t retired_sum = 0;
    for (const obs::TimelineInterval &iv : tl.intervals)
        retired_sum += iv.deltas[retired_col];
    EXPECT_EQ(retired_sum, res.retired);
}

TEST(Timeline, ExactMultipleLeavesNoEmptyTrailingInterval)
{
    Program p = loopProgram(2000);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.statsInterval = 1000;
    cfg.maxInsts = 5000;    // exact multiple of the interval
    SimResult res = simulate(p, cfg);

    ASSERT_TRUE(res.timeline);
    ASSERT_EQ(res.retired, 5000u);
    ASSERT_EQ(res.timeline->intervals.size(), 5u);
    for (const obs::TimelineInterval &iv : res.timeline->intervals)
        EXPECT_EQ(iv.insts, 1000u);
    Cycle cycles = 0;
    for (const obs::TimelineInterval &iv : res.timeline->intervals)
        cycles += iv.cycles;
    EXPECT_EQ(cycles, res.cycles);
}

TEST(Timeline, PhaseLabelsInRangeAndFirstAppearanceOrdered)
{
    Program p = loopProgram(2000);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.statsInterval = 1000;
    cfg.statsPhases = 3;
    SimResult res = simulate(p, cfg);

    ASSERT_TRUE(res.timeline);
    const obs::TimelineData &tl = *res.timeline;
    ASSERT_FALSE(tl.intervals.empty());
    // Clusters are relabeled by first appearance: the opening
    // interval is always phase 0, and a label can only appear after
    // every smaller label has.
    EXPECT_EQ(tl.intervals.front().phase, 0);
    int seen_max = -1;
    for (const obs::TimelineInterval &iv : tl.intervals) {
        ASSERT_GE(iv.phase, 0);
        ASSERT_LT(iv.phase, 3);
        EXPECT_LE(iv.phase, seen_max + 1);
        seen_max = std::max(seen_max, iv.phase);
    }
}

TEST(Timeline, ByteIdenticalAcrossThreadCounts)
{
    // Through the SimRunner pool (cached copies share the immutable
    // TimelineData): any -j width serializes the same bytes.
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "tl";
    cfg.maxInsts = 20'000;
    cfg.statsInterval = 4000;
    cfg.statsPhases = 2;

    auto doc = [&cfg](unsigned threads) {
        SimRunner pool(threads);
        std::vector<SimResult> results;
        for (const char *w : {"compress", "li"})
            results.push_back(pool.run(w, cfg));
        std::ostringstream ss;
        writeStatsJson(ss, "test_obs", results, nullptr,
                       /*include_host=*/false);
        return ss.str();
    };
    const std::string doc1 = doc(1);
    EXPECT_EQ(doc1, doc(8));
    // And the section actually made it into the document.
    JsonValue v = JsonValue::parse(doc1);
    const JsonValue &tl = v.at("results").arr[0].at("timeline");
    EXPECT_EQ(tl.at("schema").str, "tcfill-timeline-v1");
    EXPECT_EQ(tl.at("interval").u64(), 4000u);
    EXPECT_GT(tl.at("intervals").arr.size(), 0u);
}

TEST(Timeline, RecordReplayIdentical)
{
    const std::string path =
        ::testing::TempDir() + "tcfill_timeline_rr.tctrace";
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "tl-rr";
    cfg.maxInsts = 20'000;
    cfg.statsInterval = 3000;
    cfg.statsPhases = 2;

    SimResult live = tracefile::recordTrace("compress", 1, cfg, path);
    SimResult replay = tracefile::replayTrace(path, cfg);
    ASSERT_TRUE(live.timeline);
    ASSERT_TRUE(replay.timeline);
    // The body differs only in provenance: mode, and sourceDigest
    // (record digests the workload source, replay digests the trace
    // file). Neutralize both and require byte identity (timeline
    // included).
    live.mode = replay.mode = "x";
    live.sourceDigest = replay.sourceDigest = "x";
    EXPECT_EQ(bodyJson(live), bodyJson(replay));
    std::remove(path.c_str());
}

TEST(Timeline, TelemetryNeverPerturbsTiming)
{
    // The acceptance bar for the whole subsystem: timeline
    // collection, phase tagging and the host profiler are all
    // observational — the simulated machine is bit-identical.
    Program p = loopProgram(800);
    SimConfig plain_cfg = SimConfig::withOpts(FillOptimizations::all());
    SimResult base = simulate(p, plain_cfg);

    SimConfig tl_cfg = plain_cfg;
    tl_cfg.statsInterval = 700;
    tl_cfg.statsPhases = 2;
    obs::HostProfiler prof;
    Processor proc(p, tl_cfg);
    proc.setHostProfiler(&prof);
    SimResult r = proc.run();

    EXPECT_EQ(r.retired, base.retired);
    EXPECT_EQ(r.cycles, base.cycles);
    EXPECT_EQ(r.tcHits, base.tcHits);
    EXPECT_EQ(r.mispredicts, base.mispredicts);
    EXPECT_EQ(r.dynMoves, base.dynMoves);
    EXPECT_EQ(r.dynReassoc, base.dynReassoc);
    // The profiler actually measured the stage ticks it wrapped.
    bool saw_retire = false;
    for (const obs::HostProfiler::Row &row : prof.rows())
        saw_retire |= std::string_view(row.name) == "retire";
    EXPECT_TRUE(saw_retire);
}

// --------------------------------------------------------------------
// Chrome trace-event export
// --------------------------------------------------------------------

TEST(TraceEvents, WriterEmitsStrictDocument)
{
    std::ostringstream ss;
    {
        obs::TraceEventWriter w(ss);
        w.processName(obs::kTracePidSim, "sim");
        w.threadName(obs::kTracePidSim, 1, "fetch");
        w.complete(obs::kTracePidSim, 1, "0x100", 10.0, 5.0,
                   "\"seq\": 1");
        w.instant(obs::kTracePidSim, 1, "squash", 12.0);
        w.counter(obs::kTracePidSim, "in-flight", 13.0, "insts", 7.0);
        EXPECT_EQ(w.events(), 5u);
        w.close();
        w.close();    // idempotent
    }
    JsonValue v = JsonValue::parse(ss.str());
    const JsonValue &evs = v.at("traceEvents");
    ASSERT_TRUE(evs.isArray());
    ASSERT_EQ(evs.arr.size(), 5u);
    for (const JsonValue &e : evs.arr) {
        EXPECT_FALSE(e.at("ph").str.empty());
        EXPECT_GT(e.at("pid").u64(), 0u);
    }
    EXPECT_EQ(evs.arr[2].at("ph").str, "X");
    EXPECT_EQ(evs.arr[2].at("ts").num(), 10.0);
    EXPECT_EQ(evs.arr[2].at("dur").num(), 5.0);
    EXPECT_EQ(evs.arr[2].at("args").at("seq").u64(), 1u);
    EXPECT_EQ(evs.arr[3].at("s").str, "t");
    EXPECT_EQ(evs.arr[4].at("args").at("insts").num(), 7.0);
}

TEST(TraceEvents, TracerRendersPipelineAndPreservesTiming)
{
    Program p = loopProgram(500);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    SimResult base = simulate(p, cfg);

    std::ostringstream ss;
    obs::TraceEventWriter w(ss);
    obs::TraceEventTracer tracer(w);
    Processor proc(p, cfg);
    proc.setTracer(&tracer);
    SimResult r = proc.run();
    tracer.finish();
    w.close();

    EXPECT_EQ(r.retired, base.retired);
    EXPECT_EQ(r.cycles, base.cycles);

    JsonValue v = JsonValue::parse(ss.str());
    const JsonValue &evs = v.at("traceEvents");
    ASSERT_TRUE(evs.isArray());
    std::size_t spans = 0, counters = 0, meta = 0;
    double max_end = 0.0;
    for (const JsonValue &e : evs.arr) {
        const std::string &ph = e.at("ph").str;
        if (ph == "X") {
            ++spans;
            EXPECT_GE(e.at("dur").num(), 0.0);
            max_end = std::max(max_end,
                               e.at("ts").num() + e.at("dur").num());
        } else if (ph == "C") {
            ++counters;
        } else if (ph == "M") {
            ++meta;
        }
    }
    // Every retired instruction produces at least one segment span.
    EXPECT_GE(spans, static_cast<std::size_t>(base.retired));
    EXPECT_GT(counters, 0u);
    EXPECT_GE(meta, 9u);    // 2 process names + 7 thread names
    // Sim timebase: 1 cycle = 1us, so no span outlives the run.
    EXPECT_LE(max_end, static_cast<double>(base.cycles));
}

TEST(StatsJson, HostSectionsAppearOnRequest)
{
    SimRunner pool(2);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "all";
    cfg.maxInsts = 20'000;
    std::vector<SimResult> results{pool.run("compress", cfg)};
    obs::SweepProgress snap = pool.progress();

    std::ostringstream ss;
    writeStatsJson(ss, "test_obs", results, &snap,
                   /*include_host=*/true);
    JsonValue v = JsonValue::parse(ss.str());
    const JsonValue &host = v.at("host");
    EXPECT_EQ(host.at("workers").u64(), 2u);
    EXPECT_GT(host.at("wallSeconds").num(), 0.0);
    EXPECT_GT(v.at("results").arr[0].at("host")
                  .at("hostSeconds").num(), 0.0);
}

} // namespace
} // namespace tcfill
