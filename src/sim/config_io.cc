#include "sim/config_io.hh"

#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "obs/json.hh"

namespace tcfill
{

namespace
{

/** The visitKnobs() walker behind configToJson(). */
struct WireWriter
{
    obs::JsonWriter &w;

    void label(const char *m, const std::string &s) { w.field(m, s); }
    void begin(const char *member) { w.beginObject(member); }
    void end() { w.endObject(); }
    template <typename... T> void fixed(const char *, const T &...) {}

    template <typename T>
    void
    knob(const char *, const char *member, const T &value)
    {
        if constexpr (std::is_same_v<T, FillPolicyKind>)
            w.field(member, fillPolicyKindName(value));
        else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
            w.field(member, static_cast<std::uint64_t>(value));
        else
            w.field(member, value);
    }
};

/**
 * The visitKnobs() walker behind configFromJson(): one ObjectReader
 * per open object. A reader that refused stays on top and ignores
 * every later call, so the error names the first member the table
 * reaches that is missing or mistyped, or an unknown member when its
 * object closes.
 */
class WireReader
{
  public:
    WireReader(obs::JsonNode v, std::string &err) : err_(err)
    {
        scopes_.emplace_back(v, paths_.emplace_back("config"), err_);
    }

    /** Close the outermost object; false after any refusal. */
    bool finish() { return scopes_.back().finish(); }

    void label(const char *member, std::string &s) { knob("", member, s); }
    template <typename... T> void fixed(const char *, const T &...) {}

    void
    begin(const char *member)
    {
        if (const obs::JsonNode node = scopes_.back().member(member)) {
            paths_.push_back(paths_.back() + '.' + member);
            scopes_.emplace_back(node, paths_.back(), err_);
        }
    }

    void
    end()
    {
        if (scopes_.back().finish()) {
            scopes_.pop_back();
            paths_.pop_back();
        }
    }

    template <typename T>
    void
    knob(const char *, const char *member, T &out)
    {
        obs::ObjectReader &s = scopes_.back();
        if constexpr (std::is_same_v<T, bool>)
            s.boolean(member, out);
        else if constexpr (std::is_same_v<T, double>)
            s.real(member, out);
        else if constexpr (std::is_same_v<T, std::string>)
            s.string(member, out);
        else
            s.integer(member, out);
    }

    void
    knob(const char *, const char *member, FillPolicyKind &kind)
    {
        std::string name;
        if (!scopes_.back().string(member, name))
            return;
        for (FillPolicyKind k :
             {FillPolicyKind::Static, FillPolicyKind::Oracle}) {
            if (name == fillPolicyKindName(k)) {
                kind = k;
                return;
            }
        }
        scopes_.back().error("unknown kind '" + name + "'");
    }

  private:
    std::string &err_;
    /** Each reader's error path; a deque keeps the strings in place. */
    std::deque<std::string> paths_;
    std::vector<obs::ObjectReader> scopes_;
};

} // namespace

void
configToJson(obs::JsonWriter &w, const SimConfig &cfg)
{
    WireWriter writer{w};
    w.beginObject();
    visitKnobs(writer, cfg);
    w.endObject();
}

bool
configFromJson(obs::JsonNode v, SimConfig &out, std::string &err)
{
    out = SimConfig{};
    WireReader reader(v, err);
    visitKnobs(reader, out);
    if (!reader.finish())
        return false;
    err = out.check();
    return err.empty();
}

} // namespace tcfill
