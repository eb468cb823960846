/**
 * @file
 * Strict reading of the numbers that command lines and the
 * environment pass in.
 */

#ifndef TCFILL_COMMON_PARSE_HH
#define TCFILL_COMMON_PARSE_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace tcfill
{

/**
 * Read @p text into @p out as a decimal integer no greater than @p max
 * (nor than T holds): digits only, with no sign, space or trailing
 * bytes. Returns "" or why @p text was refused, with @p out unchanged.
 */
template <typename T>
std::string
readUnsigned(std::string_view text, T &out,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || v > max)
        return "needs an integer from 0 to " + std::to_string(max) +
            ", got '" + std::string(text) + "'";
    out = static_cast<T>(v);
    return {};
}

/**
 * Read @p text into @p out as a finite number: the whole of @p text
 * must be one std::from_chars double ("0.002", "-1", "2e-3"; not "x",
 * "1e", "+1", " 1" or "inf"). Returns "" or why @p text was refused,
 * with @p out unchanged.
 */
inline std::string
readNumber(std::string_view text, double &out)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end || !std::isfinite(v))
        return "needs a number, got '" + std::string(text) + "'";
    out = v;
    return {};
}

} // namespace tcfill

#endif // TCFILL_COMMON_PARSE_HH
