#include "common/digest.hh"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#define TCFILL_CRC32_CLMUL 1
#endif

namespace tcfill::digest
{

namespace
{

/** The IEEE polynomial, bit-reflected: bit 31 - d holds x^d's term. */
constexpr std::uint32_t kCrcPoly = 0xedb88320u;

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
            c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
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

/** Advance the inverted CRC state @p c over @p len bytes, slice-by-8. */
std::uint32_t
sliceBy8(const std::uint8_t *p, std::size_t len, std::uint32_t c)
{
    static constexpr CrcTables t = makeCrcTables();
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
    return c;
}

#ifdef TCFILL_CRC32_CLMUL

/**
 * Carry-less folding (Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction", Intel 2009). Four 128-bit
 * lanes each absorb the 16 bytes 64 bytes further on per step: a lane
 * L is carried forward by multiplying its two 64-bit halves by x^n mod
 * P for the right n and adding the products to the next block. The
 * survivor is then folded into one lane, down to 64 bits, and reduced
 * to 32 with a Barrett step. Every constant below is derived from
 * kCrcPoly at compile time.
 */

/** @p v's low @p bits bits in reverse order. */
constexpr std::uint64_t
reflect(std::uint64_t v, unsigned bits)
{
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        if ((v >> i) & 1)
            r |= std::uint64_t(1) << (bits - 1 - i);
    }
    return r;
}

/** P(x) less its x^32 term, bit d holding x^d's coefficient. */
constexpr std::uint32_t kPolyLow =
    static_cast<std::uint32_t>(reflect(kCrcPoly, 32));

/** x^n mod P(x), bit d holding x^d's coefficient. */
constexpr std::uint32_t
xPowModP(unsigned n)
{
    std::uint32_t r = 1;
    for (unsigned i = 0; i < n; ++i)
        r = (r & 0x80000000u) ? (r << 1) ^ kPolyLow : r << 1;
    return r;
}

/** floor(x^64 / P(x)), by carry-less long division. */
constexpr std::uint64_t
barrettQuotient()
{
    const std::uint64_t p = (std::uint64_t(1) << 32) | kPolyLow;
    std::uint64_t q = 0, r = 0;
    for (int i = 64; i >= 0; --i) {
        r = (r << 1) | (i == 64 ? 1 : 0);
        q <<= 1;
        if ((r >> 32) & 1) {
            r ^= p;
            q |= 1;
        }
    }
    return q;
}

/**
 * x^n mod P(x) as a reflected multiplier: bit 32 - d holds x^d's
 * term, which puts it 31 degrees up in its 64-bit half. A reflected
 * 64x64 carry-less product read as a 128-bit lane gains one more x,
 * so multiplying a lane half by rk(n) multiplies it by x^(n + 32).
 * Carrying a lane D bits on multiplies its low half (the terms from
 * x^64 up) by x^(D + 64) and its high half by x^D: rk(D + 32) and
 * rk(D - 32).
 */
constexpr std::uint64_t
rk(unsigned n)
{
    return reflect(xPowModP(n), 32) << 1;
}

/** Lane multipliers: four lanes on (512 bits), one lane on, 64 bits on. */
constexpr std::uint64_t kFold4Lo = rk(4 * 128 + 32);
constexpr std::uint64_t kFold4Hi = rk(4 * 128 - 32);
constexpr std::uint64_t kFold1Lo = rk(128 + 32);
constexpr std::uint64_t kFold1Hi = rk(128 - 32);
constexpr std::uint64_t kFold64 = rk(64);
/** P(x) and the Barrett quotient, reflected over their 33 bits. */
constexpr std::uint64_t kPolyRk =
    reflect((std::uint64_t(1) << 32) | kPolyLow, 33);
constexpr std::uint64_t kQuotientRk = reflect(barrettQuotient(), 33);

/** Inputs shorter than this take slice-by-8: one lane step is 64 bytes. */
constexpr std::size_t kClmulMinBytes = 64;

__attribute__((target("pclmul"))) inline __m128i
pair(std::uint64_t hi, std::uint64_t lo)
{
    return _mm_set_epi64x(static_cast<long long>(hi),
                          static_cast<long long>(lo));
}

__attribute__((target("pclmul"))) inline __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Carry @p lane forward by @p k's distance and add @p next. */
__attribute__((target("pclmul"))) inline __m128i
fold(__m128i lane, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                       _mm_clmulepi64_si128(lane, k, 0x11)),
                         next);
}

/**
 * Advance the inverted CRC state @p c over @p len bytes, where @p len
 * is at least kClmulMinBytes and a multiple of 16.
 */
__attribute__((target("pclmul"))) std::uint32_t
clmulFold(const std::uint8_t *p, std::size_t len, std::uint32_t c)
{
    __m128i x0 = _mm_xor_si128(load128(p),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load128(p + 16), x2 = load128(p + 32),
            x3 = load128(p + 48);
    const __m128i k4 = pair(kFold4Hi, kFold4Lo);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k4, load128(p));
        x1 = fold(x1, k4, load128(p + 16));
        x2 = fold(x2, k4, load128(p + 32));
        x3 = fold(x3, k4, load128(p + 48));
    }
    const __m128i k1 = pair(kFold1Hi, kFold1Lo);
    x0 = fold(fold(fold(x0, k1, x1), k1, x2), k1, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k1, load128(p));

    // 128 -> 96 bits, taking on the CRC's x^32: fold the low half
    // onto the high half.
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k1, 0x10),
                       _mm_srli_si128(x0, 8));
    // 96 -> 64 bits: fold the top 32 bits onto the rest.
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                                            pair(0, kFold64), 0x00),
                       _mm_srli_si128(x0, 4));
    // Barrett: subtract floor(x0 * u / x^64) * P, which leaves x0 mod
    // P in bits 32-63.
    const __m128i pu = pair(kQuotientRk, kPolyRk);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), pu, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pu, 0x00);
    return static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, t), 4)));
}

bool
hostHasClmul()
{
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") != 0;
    }();
    return has;
}

#endif // TCFILL_CRC32_CLMUL

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
#ifdef TCFILL_CRC32_CLMUL
    if (len >= kClmulMinBytes && hostHasClmul()) {
        const std::size_t blocks = len & ~std::size_t(15);
        c = clmulFold(p, blocks, c);
        p += blocks;
        len -= blocks;
    }
#endif
    return sliceBy8(p, len, c) ^ 0xffffffffu;
}

std::uint32_t
crc32SliceBy8(const void *data, std::size_t len, std::uint32_t seed)
{
    return sliceBy8(static_cast<const std::uint8_t *>(data), len,
                    seed ^ 0xffffffffu) ^
        0xffffffffu;
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
