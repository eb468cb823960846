/**
 * @file
 * The one hashing/digest module every content-addressed identity in
 * the tree derives from: CRC-32 (IEEE) for on-disk framing checksums
 * (tcfill-trace-v1 frames, tcfill-store-v1 records, tcfill-svc-v3
 * wire frames) and FNV-1a 64 for compact content keys (workload
 * digests, trace identities, persistent-store shard routing).
 *
 * Centralizing the primitives here is what keeps the three keyings —
 * SimRunner's in-memory result-cache key, the tracefile content
 * identity and the service result-store key — from silently drifting
 * apart: they all compose configCacheKey() (tripwired by the
 * static_asserts next to the knob table in sim/config_io.hh) with
 * digests produced by this one implementation, and
 * tests/test_service.cc pins the algorithms to published test vectors
 * so an accidental change orphans no store.
 *
 * A store hit checks its bytes with crc32() five times (the store's
 * record, then both ends of the lookup and result frames), so CRC-32
 * has a fast path: PCLMULQDQ folding for inputs of 64 bytes or more,
 * picked at run time with no build flag, beside the portable
 * slice-by-8 loop. tests/test_service.cc pins both paths to a bitwise
 * reference over lengths 0-2,048 and 4,096 at sixteen alignments.
 */

#ifndef TCFILL_COMMON_DIGEST_HH
#define TCFILL_COMMON_DIGEST_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tcfill::digest
{

/**
 * CRC-32 (IEEE 802.3, poly 0xedb88320, init/final xor ~0). Chain
 * chunks by passing the previous result as @p seed. On an x86-64 host
 * with PCLMULQDQ (checked once, at the first call) an input of 64
 * bytes or more is folded 64 bytes per step with carry-less
 * multiplies and its last 0-15 bytes go through slice-by-8; shorter
 * inputs and other hosts take slice-by-8 alone. Both paths give the
 * same value for every input and seed.
 */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

/**
 * The same CRC-32, always slice-by-8: the only path on hosts without
 * PCLMULQDQ, exported so it is tested on hosts that have it.
 */
std::uint32_t crc32SliceBy8(const void *data, std::size_t len,
                            std::uint32_t seed = 0);

/** FNV-1a 64-bit offset basis / prime. */
inline constexpr std::uint64_t kFnv64Offset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv64Prime = 0x100000001b3ull;

/** Incremental FNV-1a 64 over arbitrary byte runs. */
class Fnv64
{
  public:
    Fnv64 &
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            state_ ^= p[i];
            state_ *= kFnv64Prime;
        }
        return *this;
    }

    Fnv64 &
    update(std::string_view s)
    {
        return update(s.data(), s.size());
    }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = kFnv64Offset;
};

/** One-shot FNV-1a 64 of @p s. */
inline std::uint64_t
fnv64(std::string_view s)
{
    return Fnv64().update(s).value();
}

/** Canonical 16-digit lowercase hex rendering of a 64-bit digest. */
std::string hex64(std::uint64_t v);

} // namespace tcfill::digest

#endif // TCFILL_COMMON_DIGEST_HH
