/**
 * @file
 * Minimal, dependency-free JSON support for the observability layer:
 * a deterministic streaming writer (stable key order is the caller's,
 * number formatting is round-trip shortest and locale-independent) and
 * a small recursive-descent parser used by tests and tools to validate
 * round-trips. Header-only so lower layers (common/stats) can emit
 * JSON without a link dependency on tcfill_obs.
 */

#ifndef TCFILL_OBS_JSON_HH
#define TCFILL_OBS_JSON_HH

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace tcfill::obs
{

/** Append @p s, escaped and quoted as a JSON string, to @p out. */
inline void
jsonQuote(std::string &out, std::string_view s)
{
    out += '"';
    const char *p = s.data();
    const char *const end = p + s.size();
    while (p != end) {
        // Bulk-copy the run that needs no escaping.
        const char *run = p;
        while (p != end && *p != '"' && *p != '\\' &&
               static_cast<unsigned char>(*p) >= 0x20)
            ++p;
        out.append(run, static_cast<std::size_t>(p - run));
        if (p == end)
            break;
        const char c = *p++;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const auto u = static_cast<unsigned char>(c);
            const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4],
                                kHex[u & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
    }
    out += '"';
}

/** Escape and quote @p s as a JSON string into @p os. */
inline void
jsonQuote(std::ostream &os, std::string_view s)
{
    std::string quoted;
    jsonQuote(quoted, s);
    os << quoted;
}

/**
 * Append the deterministic decimal rendering of a double to @p out:
 * shortest round-trip form via to_chars where available, else %.17g.
 * Both are stable for a given binary, which is what the
 * byte-identical-output guarantees rest on.
 */
inline void
appendJsonNumber(std::string &out, double v)
{
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec == std::errc()) {
        out.append(buf, ptr);
        return;
    }
#endif
    char fbuf[64];
    std::snprintf(fbuf, sizeof(fbuf), "%.17g", v);
    out += fbuf;
}

/** appendJsonNumber() as a string. */
inline std::string
jsonNumber(double v)
{
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

/**
 * Streaming JSON writer with two-space pretty printing. Keys are
 * emitted in call order, so output is byte-deterministic whenever the
 * caller's values are.
 *
 * The writer appends to a std::string. Constructed over a std::ostream
 * it stages output in its own string and hands it to the stream
 * whenever the outermost scope closes (and every kFlushBytes), so a
 * finished document is in the stream while the writer is still alive.
 */
class JsonWriter
{
  public:
    /** Append the document to @p out. */
    explicit JsonWriter(std::string &out) : out_(out) {}

    /** Write the document to @p os (see the class comment). */
    explicit JsonWriter(std::ostream &os) : out_(staged_), os_(&os) {}

    ~JsonWriter() { flush(); }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &
    beginObject()
    {
        preValue();
        out_ += '{';
        stack_.push_back({true, 0});
        return *this;
    }

    JsonWriter &
    beginObject(std::string_view k)
    {
        key(k);
        return beginObject();
    }

    JsonWriter &
    endObject()
    {
        closeScope('}');
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        preValue();
        out_ += '[';
        stack_.push_back({false, 0});
        return *this;
    }

    JsonWriter &
    beginArray(std::string_view k)
    {
        key(k);
        return beginArray();
    }

    JsonWriter &
    endArray()
    {
        closeScope(']');
        return *this;
    }

    JsonWriter &
    key(std::string_view k)
    {
        panic_if(stack_.empty() || !stack_.back().isObject,
                 "JsonWriter: key outside an object");
        separator();
        jsonQuote(out_, k);
        out_ += ": ";
        have_key_ = true;
        return *this;
    }

    JsonWriter &value(std::string_view v) { preValue(); jsonQuote(out_, v); return valueDone(); }
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(const std::string &v) { return value(std::string_view(v)); }
    JsonWriter &value(bool v) { preValue(); out_ += v ? "true" : "false"; return valueDone(); }
    JsonWriter &value(double v) { preValue(); appendJsonNumber(out_, v); return valueDone(); }
    JsonWriter &value(std::uint64_t v) { preValue(); appendInt(v); return valueDone(); }
    JsonWriter &value(std::int64_t v) { preValue(); appendInt(v); return valueDone(); }
    JsonWriter &value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }

    template <typename T>
    JsonWriter &
    field(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

    /** Terminate the document with a trailing newline. */
    void
    finish()
    {
        panic_if(!stack_.empty(), "JsonWriter: unclosed scopes");
        out_ += '\n';
        flush();
    }

  private:
    struct Scope
    {
        bool isObject;
        unsigned count;
    };

    /** Staged bytes past which an ostream writer flushes mid-document. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    template <typename Int>
    void
    appendInt(Int v)
    {
        char buf[24];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        out_.append(buf, res.ptr);
    }

    void
    flush()
    {
        if (os_ && !staged_.empty()) {
            os_->write(staged_.data(),
                       static_cast<std::streamsize>(staged_.size()));
            staged_.clear();
        }
    }

    /** A complete top-level value (or a full buffer) reaches the stream. */
    JsonWriter &
    valueDone()
    {
        if (os_ && (stack_.empty() || staged_.size() >= kFlushBytes))
            flush();
        return *this;
    }

    void
    separator()
    {
        if (!stack_.empty() && stack_.back().count++ > 0)
            out_ += ',';
        newlineIndent();
    }

    void
    preValue()
    {
        if (have_key_) {
            have_key_ = false;  // key() already positioned us
            return;
        }
        if (!stack_.empty()) {
            panic_if(stack_.back().isObject,
                     "JsonWriter: value without a key inside an object");
            separator();
        }
    }

    void
    closeScope(char c)
    {
        panic_if(stack_.empty(), "JsonWriter: unbalanced close");
        bool empty = stack_.back().count == 0;
        stack_.pop_back();
        if (!empty)
            newlineIndent();
        out_ += c;
        valueDone();
    }

    void
    newlineIndent()
    {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }

    std::string staged_;            ///< ostream mode's pending output
    std::string &out_;
    std::ostream *os_ = nullptr;
    std::vector<Scope> stack_;
    bool have_key_ = false;
};

/**
 * Deepest nesting of arrays and objects the parser accepts. The
 * deepest document this tree writes nests 7 levels; the cap keeps a
 * hostile document (a frame of nothing but '[') from recursing the
 * parser off its stack.
 */
inline constexpr unsigned kMaxJsonDepth = 64;

/**
 * Parsed JSON document node. Objects preserve insertion order (so a
 * parse-and-reserialize of our own output is stable).
 */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        Null, Bool, Number, String, Array, Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Object member lookup; nullptr when absent (or not an object). */
    const JsonValue *
    find(std::string_view k) const
    {
        for (const auto &[name, v] : obj) {
            if (name == k)
                return &v;
        }
        return nullptr;
    }

    /** Object member lookup; fatals when absent. */
    const JsonValue &
    at(std::string_view k) const
    {
        const JsonValue *v = find(k);
        if (!v)
            fatal("JSON object has no member '%.*s'",
                  static_cast<int>(k.size()), k.data());
        return *v;
    }

    double num() const { return number; }

    /**
     * Number as an unsigned 64-bit integer; 0 when negative, NaN or
     * >= 2^64, where the raw cast would be undefined behavior
     * (untrusted wire payloads reach this accessor).
     */
    std::uint64_t
    u64() const
    {
        if (!(number >= 0.0) || number >= 18446744073709551616.0)
            return 0;
        return static_cast<std::uint64_t>(number);
    }

    /**
     * Parse @p text; nullopt on malformed input, on nesting deeper
     * than kMaxJsonDepth and on a number outside the double range.
     */
    static std::optional<JsonValue> tryParse(std::string_view text);

    /** Parse @p text; fatals on malformed input. */
    static JsonValue
    parse(std::string_view text)
    {
        auto v = tryParse(text);
        if (!v)
            fatal("malformed JSON document (%zu bytes)", text.size());
        return *std::move(v);
    }
};

/**
 * Strict member-by-member reader over one parsed JSON object: every
 * accessor marks its member consumed, reports missing/mistyped
 * members through a caller-owned error string (never by aborting),
 * and finish() rejects members no accessor touched. The deserializers
 * of wire payloads (sim/config_io, sim/result_io) are built from
 * nested ObjectReaders so a schema drift in either direction — a
 * field the reader does not know, or one the writer stopped emitting
 * — fails loudly instead of silently dropping data.
 */
class ObjectReader
{
  public:
    ObjectReader(const JsonValue &v, const std::string &path,
                 std::string &err)
        : v_(v), path_(path), err_(err)
    {
        if (!v.isObject()) {
            fail("expected an object");
            return;
        }
        seen_.assign(v.obj.size(), false);
    }

    bool ok() const { return ok_; }

    /** Look up (and consume) a member; error + nullptr when absent. */
    const JsonValue *
    member(const char *name)
    {
        if (!ok_)
            return nullptr;
        if (const JsonValue *m = consume(name))
            return m;
        fail(std::string("missing member '") + name + "'");
        return nullptr;
    }

    /** Consume a member without reading it (writer-derived fields). */
    void
    skip(const char *name)
    {
        member(name);
    }

    /** Like member(), but absence is not an error (optional fields). */
    const JsonValue *
    optional(const char *name)
    {
        return ok_ ? consume(name) : nullptr;
    }

    bool
    boolean(const char *name, bool &out)
    {
        const JsonValue *m = member(name);
        if (!m)
            return false;
        if (!m->isBool())
            return fail(std::string("member '") + name +
                        "' is not a boolean");
        out = m->boolean;
        return true;
    }

    template <typename T>
    bool
    integer(const char *name, T &out)
    {
        const JsonValue *m = member(name);
        if (!m)
            return false;
        if (!m->isNumber())
            return fail(std::string("member '") + name +
                        "' is not a number");
        const double d = m->number;
        if (!(d >= 0.0) || d != std::floor(d) ||
            d >= std::ldexp(1.0, std::numeric_limits<T>::digits))
            return fail(std::string("member '") + name +
                        "' is not an unsigned integer in range");
        out = static_cast<T>(d);
        return true;
    }

    bool
    real(const char *name, double &out)
    {
        const JsonValue *m = member(name);
        if (!m)
            return false;
        if (!m->isNumber())
            return fail(std::string("member '") + name +
                        "' is not a number");
        out = m->number;
        return true;
    }

    bool
    string(const char *name, std::string &out)
    {
        const JsonValue *m = member(name);
        if (!m)
            return false;
        if (!m->isString())
            return fail(std::string("member '") + name +
                        "' is not a string");
        out = m->str;
        return true;
    }

    /** Report a semantic error at this reader's path. */
    bool
    error(const std::string &what)
    {
        return fail(what);
    }

    /** Reject members no accessor consumed. */
    bool
    finish()
    {
        if (!ok_)
            return false;
        for (std::size_t i = 0; i < v_.obj.size(); ++i) {
            if (!seen_[i])
                return fail("unknown member '" + v_.obj[i].first +
                            "'");
        }
        return true;
    }

  private:
    /**
     * Find and mark @p name. Readers ask for members in the order the
     * writer emitted them, so the scan starts just past the last hit
     * and wraps: one comparison per member in the usual case.
     */
    const JsonValue *
    consume(const char *name)
    {
        const std::size_t n = v_.obj.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = next_ + k < n ? next_ + k : next_ + k - n;
            if (v_.obj[i].first == name) {
                seen_[i] = true;
                next_ = i + 1;
                return &v_.obj[i].second;
            }
        }
        return nullptr;
    }

    bool
    fail(const std::string &what)
    {
        if (ok_) {
            ok_ = false;
            err_ = path_ + ": " + what;
        }
        return false;
    }

    const JsonValue &v_;
    std::string path_;
    std::string &err_;
    std::vector<bool> seen_;
    std::size_t next_ = 0;      ///< where consume() starts scanning
    bool ok_ = true;
};

namespace detail
{

/**
 * Recursive-descent JSON parser over a string_view cursor; recursion
 * stops at kMaxJsonDepth.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : s_(text) {}

    bool
    parseDocument(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view lit)
    {
        if (s_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < s_.size()) {
            // Bulk-copy the run up to the next quote or escape.
            const std::size_t run = pos_;
            while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\')
                ++pos_;
            out.append(s_.data() + run, pos_ - run);
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_++] == '"')
                return true;
            if (pos_ >= s_.size())
                return false;
            char e = s_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > s_.size())
                    return false;
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
                    else return false;
                }
                // Only BMP escapes are produced by our writer; encode
                // as UTF-8 without surrogate-pair handling.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                return false;
            }
        }
        return false;
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            return false;
        // strtod needs a terminated token; numbers are short, so stage
        // them on the stack and keep the heap for pathological ones.
        const std::size_t len = pos_ - start;
        char stack_tok[64];
        std::string heap_tok;
        char *tok = stack_tok;
        if (len < sizeof(stack_tok)) {
            std::memcpy(stack_tok, s_.data() + start, len);
            stack_tok[len] = '\0';
        } else {
            heap_tok.assign(s_.data() + start, len);
            tok = heap_tok.data();
        }
        char *end = nullptr;
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(tok, &end);
        // JSON has no infinity: an overflowing literal is refused
        // rather than read as one no writer could echo back.
        return end == tok + len && std::isfinite(out.number);
    }

    /** The members of an object whose '{' is at pos_. */
    bool
    parseObject(JsonValue &out)
    {
        ++pos_;
        out.kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            std::string name;
            if (!parseString(name))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            JsonValue member;
            if (!parseValue(member))
                return false;
            out.obj.emplace_back(std::move(name), std::move(member));
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    /** The elements of an array whose '[' is at pos_. */
    bool
    parseArray(JsonValue &out)
    {
        ++pos_;
        out.kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            JsonValue elem;
            if (!parseValue(elem))
                return false;
            out.arr.push_back(std::move(elem));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxJsonDepth)
                return false;
            ++depth_;
            const bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (literal("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (literal("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (literal("null")) {
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return parseNumber(out);
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;        ///< arrays and objects open at pos_
};

} // namespace detail

inline std::optional<JsonValue>
JsonValue::tryParse(std::string_view text)
{
    JsonValue v;
    detail::JsonParser p(text);
    if (!p.parseDocument(v))
        return std::nullopt;
    return v;
}

} // namespace tcfill::obs

#endif // TCFILL_OBS_JSON_HH
