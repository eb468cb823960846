/**
 * @file
 * tcfill-svc-v3: the framing layer of the simulation service. Every
 * message — client↔daemon and daemon↔shard-worker alike — travels in
 * one length-prefixed, CRC-checked frame:
 *
 *   magic    u32 LE   kFrameMagic ("tsv2", kept from v2)
 *   len      u32 LE   payload byte length (<= kMaxFramePayload)
 *   payload  bytes    one message (below)
 *   crc      u32 LE   CRC-32 (IEEE) of payload — common/digest
 *
 * The CRC mirrors the tcfill-trace-v1 frame convention: a frame is
 * either delivered intact or rejected as corrupt; there is no partial
 * acceptance. A message is a small JSON header plus an opaque body:
 *
 *   hlen     u32 LE   header byte length (<= len - 4)
 *   header   bytes    UTF-8 JSON object with a "type" member
 *   body     bytes    the rest of the payload
 *
 * Only result messages have a body: the result record's own bytes
 * (sim/result_io), exactly as the store holds them, so a store hit is
 * never escaped into a JSON string and parsed back out. Messages (by
 * header "type"):
 *
 *   client → daemon:  hello{schema}, ping, stats, lookup{id, progress,
 *                     keys:[simPointKey text]}, sweep{id, progress,
 *                     points:[{workload, scale, config}]}, shutdown
 *   daemon → client:  hello{schema, shards}, pong, stats{service,
 *                     store, shards}, result{id, index, cacheHit} +
 *                     record, miss{id, index}, progress{id, done,
 *                     points, storeHits, memoryHits, computed},
 *                     done{id, points, storeHits[, memoryHits,
 *                     computed]}, error{message[, id]}, ok
 *   daemon → shard:   job{id, workload, scale, config}
 *   shard → daemon:   result{id, cacheHit} + record, error{id, message}
 *
 * A lookup is answered from the store alone: per key, in order, a
 * result with cacheHit "store" or a miss, then done{id, points,
 * storeHits}. It never parses a config, rebuilds a key, coalesces or
 * simulates. A sweep resolves each point from its config (store,
 * then an identical point in flight, then a shard) and is answered
 * with one result per point, then done. ServiceClient::sweep looks up
 * every point's key and sweeps only the misses, so a stored point
 * costs no config on either side.
 *
 * The daemon refuses a hello whose schema is not kSvcSchema. Progress
 * frames go only to lookups and sweeps that set "progress": true: one
 * per hit of a lookup, one per point of a sweep. Every endpoint reads
 * a socket through one FrameReader; a reply's frames collect in one
 * buffer, written when the reply ends, when it passes
 * kReplyFlushBytes, or before the daemon waits on a simulation. So a
 * store hit costs one read and one write per side, and no key count
 * can grow the buffer past one flush. `config` objects are
 * sim/config_io serializations.
 */

#ifndef TCFILL_SERVICE_PROTOCOL_HH
#define TCFILL_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace tcfill::service
{

/** Protocol schema tag exchanged in the hello handshake. */
inline constexpr const char *kSvcSchema = "tcfill-svc-v3";

/** Frame magic: "tsv2", little-endian (unchanged since v2). */
inline constexpr std::uint32_t kFrameMagic = 0x32767374u;

/** Upper bound on one frame's payload (sanity cap, not a target). */
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/** Bytes of framing around a payload (magic + len + crc). */
inline constexpr std::size_t kFrameOverhead = 12;

/**
 * Largest workload scale a sweep point may ask for: 64x the largest
 * any experiment runs. Run time grows with the scale, so past this a
 * point could hold a shard for hours.
 */
inline constexpr unsigned kMaxSweepScale = 1024;

/**
 * A reply buffer is written out once it holds this many bytes, so a
 * request that asks for many small frames (a lookup of many keys)
 * never grows the daemon's buffer much past this.
 */
inline constexpr std::size_t kReplyFlushBytes = 64 * 1024;

/** Wrap @p payload in one complete frame. */
std::string encodeFrame(std::string_view payload);

/** Outcome of decoding a frame from a byte buffer. */
enum class FrameStatus : std::uint8_t
{
    Ok,         ///< one frame decoded; `consumed` bytes used
    NeedMore,   ///< buffer holds only a frame prefix
    BadMagic,   ///< leading bytes are not a frame
    TooLarge,   ///< declared payload exceeds kMaxFramePayload
    BadCrc,     ///< payload checksum mismatch
};

const char *frameStatusName(FrameStatus s);

/**
 * Try to decode one frame from the front of @p buf. On Ok, @p payload
 * receives the payload and @p consumed the total frame size; on any
 * other status both are unspecified.
 */
FrameStatus decodeFrame(std::string_view buf, std::string &payload,
                        std::size_t &consumed);

/**
 * Append one complete frame carrying the message @p header + @p body
 * to @p out. Replies are built by appending their frames to one
 * buffer and sent with writeAll() (see kReplyFlushBytes).
 */
void appendMessage(std::string &out, std::string_view header,
                   std::string_view body = {});

/**
 * Split a frame payload into its JSON header and its body (views into
 * @p payload). False when the header length overruns the payload.
 */
bool splitMessage(std::string_view payload, std::string_view &header,
                  std::string_view &body);

/** Outcome of reading one frame from a stream socket. */
enum class WireStatus : std::uint8_t
{
    Ok,         ///< one intact frame read
    Eof,        ///< clean end of stream at a frame boundary
    Error,      ///< read/write syscall failure or mid-frame EOF
    Corrupt,    ///< framing violation (magic/size/CRC)
};

const char *wireStatusName(WireStatus s);

/** Write all of @p bytes to @p fd (retrying short writes). */
bool writeAll(int fd, std::string_view bytes);

/**
 * Buffered frame reader over one stream socket. Each read takes what
 * the socket has, so a reply sent with one write usually arrives with
 * one read, and bytes that follow a frame stay buffered for the next
 * call (a client may pipeline requests). The buffer doubles only when
 * arriving bytes fill it, never past one largest frame, so a forged
 * length cannot make the reader allocate much more than the peer sent.
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd) : fd_(fd) {}

    FrameReader(const FrameReader &) = delete;
    FrameReader &operator=(const FrameReader &) = delete;

    /**
     * Read the next frame (blocking). On Ok, @p payload views its
     * payload until the next call. Eof only at a frame boundary;
     * Error on a read failure or an EOF inside a frame; Corrupt on a
     * bad magic, size or CRC. After any status but Ok the stream is
     * unusable.
     */
    WireStatus next(std::string_view &payload);

    /** Most bytes the reader ever buffers: one largest frame. */
    static constexpr std::size_t kMaxBuffered =
        kMaxFramePayload + kFrameOverhead;

  private:
    int fd_;
    std::unique_ptr<char[]> buf_;
    std::size_t cap_ = 0;
    std::size_t begin_ = 0;     ///< first byte not yet returned
    std::size_t end_ = 0;       ///< one past the last byte read
};

} // namespace tcfill::service

#endif // TCFILL_SERVICE_PROTOCOL_HH
