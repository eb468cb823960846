/**
 * @file
 * Minimal, dependency-free JSON support for the observability layer:
 * a deterministic streaming writer (stable key order is the caller's,
 * number formatting is round-trip shortest and locale-independent) and
 * one validating scanner that reads a document into a flat node array
 * (JsonDocument). Schema'd readers (ObjectReader) and ad hoc lookups
 * (JsonNode) read that array in place; JsonValue is a tree
 * materialized from it for callers that navigate freely. Header-only
 * so lower layers (common/stats) can emit JSON without a link
 * dependency on tcfill_obs.
 */

#ifndef TCFILL_OBS_JSON_HH
#define TCFILL_OBS_JSON_HH

#include <algorithm>
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
 * Deepest nesting of arrays and objects the scanner accepts. The
 * deepest document this tree writes nests 7 levels; the cap bounds the
 * scanner's stack of open containers and the tree's recursion, so a
 * hostile document (a frame of nothing but '[') is refused at once.
 */
inline constexpr unsigned kMaxJsonDepth = 64;

enum class JsonKind : std::uint8_t
{
    Null, Bool, Number, String, Array, Object,
};

/**
 * @p d as an unsigned 64-bit integer; 0 when negative, NaN or >= 2^64,
 * where the raw cast would be undefined behavior (untrusted wire
 * payloads reach this).
 */
inline std::uint64_t
jsonU64(double d)
{
    if (!(d >= 0.0) || d >= 18446744073709551616.0)
        return 0;
    return static_cast<std::uint64_t>(d);
}

/**
 * A JSON document as a tree, materialized from a JsonDocument for
 * callers that navigate ad hoc (tools, benchmarks, tests). Objects
 * preserve insertion order (so a parse-and-reserialize of our own
 * output is stable). Readers on a hot path read the JsonDocument
 * instead and build no tree.
 */
struct JsonValue
{
    using Kind = JsonKind;

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

    /** Number as an unsigned 64-bit integer (see jsonU64()). */
    std::uint64_t u64() const { return jsonU64(number); }

    /** Parse @p text; nullopt where JsonDocument::parse() refuses it. */
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

class JsonDocument;

/**
 * One value of a JsonDocument, read in place: valid while the
 * document (and the text it was scanned from) is. A default-built
 * node is absent: every is*() is false and every accessor returns its
 * type's zero.
 */
class JsonNode
{
  public:
    JsonNode() = default;

    explicit operator bool() const { return doc_ != nullptr; }

    /** The value's kind; the node must not be absent. */
    JsonKind kind() const;
    bool isBool() const { return doc_ && kind() == JsonKind::Bool; }
    bool isNumber() const { return doc_ && kind() == JsonKind::Number; }
    bool isString() const { return doc_ && kind() == JsonKind::String; }
    bool isArray() const { return doc_ && kind() == JsonKind::Array; }
    bool isObject() const { return doc_ && kind() == JsonKind::Object; }

    bool boolean() const;
    double num() const;
    /** Number as an unsigned 64-bit integer (see jsonU64()). */
    std::uint64_t u64() const { return jsonU64(num()); }
    /** A string's decoded bytes: a view of the text or the document. */
    std::string_view str() const;
    /** Elements of an array, members of an object. */
    std::size_t size() const;

    /** The first member named @p name; absent when none (or no object). */
    JsonNode find(std::string_view name) const;

    /** Iterates an array's elements or (Members) an object's members. */
    template <bool Members>
    class Children;
    Children<false> elements() const;
    Children<true> members() const;

    /** This value as a tree. */
    JsonValue tree() const;

  private:
    friend class JsonDocument;
    friend class ObjectReader;

    JsonNode(const JsonDocument *doc, std::size_t i) : doc_(doc), i_(i) {}

    const JsonDocument *doc_ = nullptr;
    std::size_t i_ = 0;         ///< index into the document's nodes
};

/** One member of an object. */
struct JsonMember
{
    std::string_view name;
    JsonNode value;
};

/**
 * A scanned JSON document: one array of nodes, one per value in
 * document order, in which a member's name node precedes its value
 * and an array or object records its child count and the index past
 * its last descendant. Names and escape-free strings are views of the
 * scanned text; strings with escapes are decoded once into one side
 * buffer. Numbers are read at scan time (std::from_chars, with
 * strtod() deciding whatever from_chars does not accept outright). So
 * a document costs one allocation, none when the document is reused:
 * nothing is allocated per member.
 *
 * The grammar is the one the recursive-descent parser this replaced
 * accepted, pinned by Json.EdgeCasesMatchPinnedTable: whitespace is
 * space, tab, CR and LF; strings take the eight
 * short escapes and \uXXXX (each code unit encoded as UTF-8 on its
 * own, no surrogate pairing) and raw bytes of any value; a number is
 * the longest run of [0-9.eE+-] that strtod() reads whole to a finite
 * double, so ".5", "1.", "00012" and "+1" are numbers, "1e400" is
 * refused and "1e-400" reads 0; nesting stops at kMaxJsonDepth.
 */
class JsonDocument
{
  public:
    /**
     * Scan @p text into this document, replacing what it held; false
     * (and an empty document) on malformed input, on nesting deeper
     * than kMaxJsonDepth and on a number outside the double range.
     * The text must outlive every read of the document.
     */
    bool parse(std::string_view text);

    /** The top-level value; absent unless the last parse succeeded. */
    JsonNode
    root() const
    {
        return nodes_.empty() ? JsonNode() : JsonNode(this, 0);
    }

  private:
    friend class JsonNode;
    template <bool Members>
    friend class JsonNode::Children;
    friend class ObjectReader;

    struct Node
    {
        JsonKind kind;
        bool flag;          ///< Bool: its value; String: bytes in decoded_
        std::uint64_t a;    ///< String: first byte; Array/Object: children
        std::uint64_t b;    ///< String: length; Array/Object: index past
                            ///< its last descendant; Number: its bits
    };

    /**
     * The most nodes reserved up front, so a huge text reserves little,
     * and the most a reused document keeps from an earlier parse.
     */
    static constexpr std::size_t kReserveNodes = std::size_t{1} << 16;

    /** Index of the first node after node @p i and its descendants. */
    std::size_t
    skip(std::size_t i) const
    {
        const Node &n = nodes_[i];
        return n.kind == JsonKind::Array || n.kind == JsonKind::Object
            ? n.b : i + 1;
    }

    std::string_view
    string(std::size_t i) const
    {
        const Node &n = nodes_[i];
        return {(n.flag ? decoded_.data() : text_.data()) + n.a, n.b};
    }

    double
    number(std::size_t i) const
    {
        double d;
        std::memcpy(&d, &nodes_[i].b, sizeof(d));
        return d;
    }

    void
    push(JsonKind kind, bool flag, std::uint64_t a, std::uint64_t b)
    {
        nodes_.push_back(Node{kind, flag, a, b});
    }

    static void
    skipWs(const char *&p, const char *end)
    {
        while (p != end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    static bool
    literal(const char *&p, const char *end, std::string_view lit)
    {
        if (static_cast<std::size_t>(end - p) < lit.size() ||
            std::memcmp(p, lit.data(), lit.size()) != 0)
            return false;
        p += lit.size();
        return true;
    }

    bool scan();
    bool scanString(const char *&p, const char *end);
    bool scanName(const char *&p, const char *end);
    bool scanNumber(const char *&p, const char *end);

    std::string_view text_;
    std::vector<Node> nodes_;
    std::string decoded_;       ///< strings that held escapes, unescaped
};

template <bool Members>
class JsonNode::Children
{
  public:
    class iterator
    {
      public:
        iterator(const JsonDocument *doc, std::size_t i) : doc_(doc), i_(i) {}

        auto
        operator*() const
        {
            if constexpr (Members)
                return JsonMember{doc_->string(i_), JsonNode(doc_, i_ + 1)};
            else
                return JsonNode(doc_, i_);
        }

        iterator &
        operator++()
        {
            i_ = doc_->skip(Members ? i_ + 1 : i_);
            return *this;
        }

        bool operator!=(const iterator &o) const { return i_ != o.i_; }

      private:
        const JsonDocument *doc_;
        std::size_t i_;
    };

    Children(const JsonDocument *doc, std::size_t first, std::size_t last)
        : doc_(doc), first_(first), last_(last)
    {
    }

    iterator begin() const { return {doc_, first_}; }
    iterator end() const { return {doc_, last_}; }

  private:
    const JsonDocument *doc_;
    std::size_t first_, last_;
};

inline JsonKind
JsonNode::kind() const
{
    return doc_->nodes_[i_].kind;
}

inline bool
JsonNode::boolean() const
{
    return isBool() && doc_->nodes_[i_].flag;
}

inline double
JsonNode::num() const
{
    return isNumber() ? doc_->number(i_) : 0.0;
}

inline std::string_view
JsonNode::str() const
{
    return isString() ? doc_->string(i_) : std::string_view();
}

inline std::size_t
JsonNode::size() const
{
    return isArray() || isObject() ? doc_->nodes_[i_].a : 0;
}

inline JsonNode::Children<false>
JsonNode::elements() const
{
    if (!isArray())
        return {doc_, 0, 0};
    return {doc_, i_ + 1, doc_->nodes_[i_].b};
}

inline JsonNode::Children<true>
JsonNode::members() const
{
    if (!isObject())
        return {doc_, 0, 0};
    return {doc_, i_ + 1, doc_->nodes_[i_].b};
}

inline JsonNode
JsonNode::find(std::string_view name) const
{
    for (const JsonMember &m : members()) {
        if (m.name == name)
            return m.value;
    }
    return {};
}

inline JsonValue
JsonNode::tree() const
{
    JsonValue v;
    if (!doc_)
        return v;
    v.kind = kind();
    switch (v.kind) {
      case JsonKind::Null:
        break;
      case JsonKind::Bool:
        v.boolean = boolean();
        break;
      case JsonKind::Number:
        v.number = num();
        break;
      case JsonKind::String:
        v.str = str();
        break;
      case JsonKind::Array:
        v.arr.reserve(size());
        for (JsonNode e : elements())
            v.arr.push_back(e.tree());
        break;
      case JsonKind::Object:
        v.obj.reserve(size());
        for (const JsonMember &m : members())
            v.obj.emplace_back(std::string(m.name), m.value.tree());
        break;
    }
    return v;
}

namespace detail
{

/**
 * Read the number token [@p tok, @p end) into @p out, exactly as
 * strtod() reads it whole to a finite double. std::from_chars takes
 * every token it reads whole and in range (the two round alike);
 * strtod() decides the rest: a leading '+', which from_chars refuses,
 * values that round to zero or overflow ("1e-400" reads 0, "1e400" is
 * refused), and malformed tokens.
 */
inline bool
readJsonNumber(const char *tok, const char *end, double &out)
{
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    if (*tok != '+') {
        const auto [ptr, ec] = std::from_chars(tok, end, out);
        if (ec == std::errc() && ptr == end)
            return true;
    }
#endif
    // strtod needs a terminated token; numbers are short, so stage
    // them on the stack and keep the heap for pathological ones.
    const std::size_t len = static_cast<std::size_t>(end - tok);
    char stack_tok[64];
    std::string heap_tok;
    char *buf = stack_tok;
    if (len < sizeof(stack_tok)) {
        std::memcpy(stack_tok, tok, len);
        stack_tok[len] = '\0';
    } else {
        heap_tok.assign(tok, len);
        buf = heap_tok.data();
    }
    char *stop = nullptr;
    out = std::strtod(buf, &stop);
    // JSON has no infinity: an overflowing literal is refused rather
    // than read as one no writer could echo back.
    return stop == buf + len && std::isfinite(out);
}

inline int
hexDigit(char h)
{
    if (h >= '0' && h <= '9')
        return h - '0';
    if (h >= 'a' && h <= 'f')
        return h - 'a' + 10;
    if (h >= 'A' && h <= 'F')
        return h - 'A' + 10;
    return -1;
}

} // namespace detail

inline bool
JsonDocument::parse(std::string_view text)
{
    text_ = text;
    // A reused document keeps its buffers, but not a huge earlier
    // document's: one hostile frame must not pin its memory for the
    // rest of a connection.
    if (nodes_.capacity() > kReserveNodes)
        std::vector<Node>().swap(nodes_);
    if (decoded_.capacity() > kReserveNodes)
        std::string().swap(decoded_);
    nodes_.clear();
    decoded_.clear();
    // Every value but the first takes two bytes or more (itself and a
    // separator or its brackets), so a document of up to
    // 2 * kReserveNodes bytes fits the first reservation.
    nodes_.reserve(std::min(text.size() / 2 + 1, kReserveNodes));
    if (scan())
        return true;
    nodes_.clear();
    return false;
}

inline bool
JsonDocument::scan()
{
    const char *p = text_.data();
    const char *const end = p + text_.size();
    std::size_t open[kMaxJsonDepth];    // node of each array/object open at p
    unsigned depth = 0;
    skipWs(p, end);
    for (;;) {
        // A value starts at p.
        if (p == end)
            return false;
        const char c = *p;
        if (c == '[' || c == '{') {
            if (depth == kMaxJsonDepth)
                return false;
            const bool object = c == '{';
            open[depth++] = nodes_.size();
            push(object ? JsonKind::Object : JsonKind::Array, false, 0, 0);
            ++p;
            skipWs(p, end);
            if (p == end || *p != (object ? '}' : ']')) {
                if (object && !scanName(p, end))
                    return false;
                continue;
            }
            ++p;
            --depth;
            nodes_[open[depth]].b = nodes_.size();
        } else if (c == '"') {
            if (!scanString(p, end))
                return false;
        } else if (c == 't' || c == 'f' || c == 'n') {
            if (literal(p, end, "true"))
                push(JsonKind::Bool, true, 0, 0);
            else if (literal(p, end, "false"))
                push(JsonKind::Bool, false, 0, 0);
            else if (literal(p, end, "null"))
                push(JsonKind::Null, false, 0, 0);
            else
                return false;
        } else if (!scanNumber(p, end)) {
            return false;
        }
        // The value is complete: count it into its container, and
        // close each container it completes, up to the next value.
        for (;;) {
            skipWs(p, end);
            if (depth == 0)
                return p == end;
            Node &top = nodes_[open[depth - 1]];
            ++top.a;
            const bool object = top.kind == JsonKind::Object;
            if (p != end && *p == ',') {
                ++p;
                skipWs(p, end);
                if (object && !scanName(p, end))
                    return false;
                break;
            }
            if (p == end || *p != (object ? '}' : ']'))
                return false;
            ++p;
            top.b = nodes_.size();
            --depth;
        }
    }
}

/** A member's name, its ':' and the whitespace up to its value. */
inline bool
JsonDocument::scanName(const char *&p, const char *end)
{
    if (p == end || *p != '"' || !scanString(p, end))
        return false;
    skipWs(p, end);
    if (p == end || *p != ':')
        return false;
    ++p;
    skipWs(p, end);
    return true;
}

/** The string whose opening quote is at p. */
inline bool
JsonDocument::scanString(const char *&p, const char *end)
{
    const char *const start = ++p;
    const char *quote = static_cast<const char *>(
        std::memchr(p, '"', static_cast<std::size_t>(end - p)));
    const char *escape = static_cast<const char *>(std::memchr(
        p, '\\', static_cast<std::size_t>((quote ? quote : end) - p)));
    if (!escape) {
        if (!quote)
            return false;
        push(JsonKind::String, false,
             static_cast<std::uint64_t>(start - text_.data()),
             static_cast<std::uint64_t>(quote - start));
        p = quote + 1;
        return true;
    }
    p = escape;
    // Escapes: the whole string is decoded into decoded_.
    const std::size_t first = decoded_.size();
    decoded_.append(start, static_cast<std::size_t>(p - start));
    for (;;) {
        ++p;    // past the backslash
        if (p == end)
            return false;
        switch (*p++) {
          case '"': decoded_ += '"'; break;
          case '\\': decoded_ += '\\'; break;
          case '/': decoded_ += '/'; break;
          case 'n': decoded_ += '\n'; break;
          case 'r': decoded_ += '\r'; break;
          case 't': decoded_ += '\t'; break;
          case 'b': decoded_ += '\b'; break;
          case 'f': decoded_ += '\f'; break;
          case 'u': {
            if (end - p < 4)
                return false;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
                const int h = detail::hexDigit(*p++);
                if (h < 0)
                    return false;
                cp = cp << 4 | static_cast<unsigned>(h);
            }
            // Only BMP escapes are produced by our writer; encode
            // as UTF-8 without surrogate-pair handling.
            if (cp < 0x80) {
                decoded_ += static_cast<char>(cp);
            } else if (cp < 0x800) {
                decoded_ += static_cast<char>(0xc0 | (cp >> 6));
                decoded_ += static_cast<char>(0x80 | (cp & 0x3f));
            } else {
                decoded_ += static_cast<char>(0xe0 | (cp >> 12));
                decoded_ += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                decoded_ += static_cast<char>(0x80 | (cp & 0x3f));
            }
            break;
          }
          default:
            return false;
        }
        const char *const run = p;
        while (p != end && *p != '"' && *p != '\\')
            ++p;
        decoded_.append(run, static_cast<std::size_t>(p - run));
        if (p == end)
            return false;
        if (*p == '"') {
            push(JsonKind::String, true, first, decoded_.size() - first);
            ++p;
            return true;
        }
    }
}

/** The number token at p: the longest run of [0-9.eE+-]. */
inline bool
JsonDocument::scanNumber(const char *&p, const char *end)
{
    const auto numeric = [](char c) {
        return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
            c == '+' || c == '-';
    };
    const char *const tok = p;
    while (p != end && numeric(*p))
        ++p;
    double d = 0.0;
    if (p == tok || !detail::readJsonNumber(tok, p, d))
        return false;
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    push(JsonKind::Number, false, 0, bits);
    return true;
}

inline std::optional<JsonValue>
JsonValue::tryParse(std::string_view text)
{
    JsonDocument doc;
    if (!doc.parse(text))
        return std::nullopt;
    return doc.root().tree();
}

/**
 * Strict member-by-member reader over one object of a JsonDocument:
 * every accessor marks its member consumed, reports missing/mistyped
 * members through a caller-owned error string (never by aborting),
 * and finish() rejects members no accessor touched. The deserializers
 * of wire payloads (sim/config_io, sim/result_io) are built from
 * nested ObjectReaders so a schema drift in either direction — a
 * field the reader does not know, or one the writer stopped emitting
 * — fails loudly instead of silently dropping data. A reader
 * allocates its bit per member once; a read allocates only its output
 * and, on failure, the error text.
 */
class ObjectReader
{
  public:
    /** @p path prefixes error texts and must outlive the reader. */
    ObjectReader(JsonNode v, std::string_view path, std::string &err)
        : v_(v), path_(path), err_(err)
    {
        if (!v.isObject()) {
            fail("expected an object");
            return;
        }
        nextKey_ = v.i_ + 1;
        seen_.assign(v.size(), false);
    }

    bool ok() const { return ok_; }

    /** Look up (and consume) a member; error + absent when missing. */
    JsonNode
    member(std::string_view name)
    {
        if (!ok_)
            return {};
        if (const JsonNode m = consume(name))
            return m;
        fail("missing member '" + std::string(name) + "'");
        return {};
    }

    /** Consume a member without reading it (writer-derived fields). */
    void
    skip(std::string_view name)
    {
        member(name);
    }

    /** Like member(), but absence is not an error (optional fields). */
    JsonNode
    optional(std::string_view name)
    {
        return ok_ ? consume(name) : JsonNode();
    }

    bool
    boolean(std::string_view name, bool &out)
    {
        const JsonNode m = member(name);
        if (!m)
            return false;
        if (!m.isBool())
            return fail("member '" + std::string(name) +
                        "' is not a boolean");
        out = m.boolean();
        return true;
    }

    template <typename T>
    bool
    integer(std::string_view name, T &out)
    {
        const JsonNode m = member(name);
        if (!m)
            return false;
        if (!m.isNumber())
            return fail("member '" + std::string(name) +
                        "' is not a number");
        static_assert(std::numeric_limits<T>::digits <= 64);
        // 2^digits, the first value T cannot hold.
        constexpr double limit =
            2.0 * static_cast<double>(std::uint64_t{1}
                                      << (std::numeric_limits<T>::digits - 1));
        const double d = m.num();
        if (!(d >= 0.0) || !(d < limit) ||
            static_cast<double>(static_cast<std::uint64_t>(d)) != d)
            return fail("member '" + std::string(name) +
                        "' is not an unsigned integer in range");
        out = static_cast<T>(d);
        return true;
    }

    bool
    real(std::string_view name, double &out)
    {
        const JsonNode m = member(name);
        if (!m)
            return false;
        if (!m.isNumber())
            return fail("member '" + std::string(name) +
                        "' is not a number");
        out = m.num();
        return true;
    }

    bool
    string(std::string_view name, std::string &out)
    {
        const JsonNode m = member(name);
        if (!m)
            return false;
        if (!m.isString())
            return fail("member '" + std::string(name) +
                        "' is not a string");
        out = m.str();
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
        const JsonDocument &d = *v_.doc_;
        std::size_t key = v_.i_ + 1;
        for (std::size_t i = 0; i < seen_.size();
             ++i, key = d.skip(key + 1)) {
            if (!seen_[i])
                return fail("unknown member '" +
                            std::string(d.string(key)) + "'");
        }
        return true;
    }

  private:
    /**
     * Find and mark @p name. Readers ask for members in the order the
     * writer emitted them, so the scan starts just past the last hit
     * and wraps: one comparison per member in the usual case.
     */
    JsonNode
    consume(std::string_view name)
    {
        const JsonDocument &d = *v_.doc_;
        const std::size_t count = seen_.size();
        std::size_t i = next_, key = nextKey_;
        for (std::size_t k = 0; k < count;
             ++k, ++i, key = d.skip(key + 1)) {
            if (i == count) {
                i = 0;
                key = v_.i_ + 1;
            }
            if (d.string(key) == name) {
                seen_[i] = true;
                next_ = i + 1;
                nextKey_ = d.skip(key + 1);
                return JsonNode(&d, key + 1);
            }
        }
        return {};
    }

    bool
    fail(const std::string &what)
    {
        if (ok_) {
            ok_ = false;
            err_ = std::string(path_) + ": " + what;
        }
        return false;
    }

    JsonNode v_;
    std::string_view path_;
    std::string &err_;
    std::vector<bool> seen_;    ///< per member: consumed yet
    std::size_t next_ = 0;      ///< member where consume() starts scanning
    std::size_t nextKey_ = 0;   ///< that member's name node
    bool ok_ = true;
};

} // namespace tcfill::obs

#endif // TCFILL_OBS_JSON_HH
