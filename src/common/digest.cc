#include "common/digest.hh"

#include <array>

namespace tcfill::digest
{

namespace
{

/**
 * Slice-by-8 tables: tables[0] is the classic bytewise table and
 * tables[k][i] advances tables[k-1][i] by one more zero byte, so eight
 * lookups fold eight input bytes at once. Built at compile time, so
 * there is no static-initialization order to get wrong.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
    return t;
}

std::uint32_t
load32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        static_cast<std::uint32_t>(p[1]) << 8 |
        static_cast<std::uint32_t>(p[2]) << 16 |
        static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    static constexpr CrcTables t = makeCrcTables();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; len -= 8, p += 8) {
        const std::uint32_t lo = load32le(p) ^ c;
        const std::uint32_t hi = load32le(p + 4);
        c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
            t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
            t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
            t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; len > 0; --len, ++p)
        c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::string
hex64(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

} // namespace tcfill::digest
