#include "service/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <initializer_list>

#include <unistd.h>

#include "common/digest.hh"

namespace tcfill::service
{

namespace
{

/** Room the first read of a FrameReader gets. */
constexpr std::size_t kInitialBuffer = 16 * 1024;

void
putU32(std::string &out, std::uint32_t v)
{
    const char bytes[] = {static_cast<char>(v & 0xff),
                          static_cast<char>((v >> 8) & 0xff),
                          static_cast<char>((v >> 16) & 0xff),
                          static_cast<char>((v >> 24) & 0xff)};
    out.append(bytes, sizeof(bytes));
}

std::uint32_t
getU32(const char *p)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1]))
         << 8) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]))
         << 24);
}

/** Append one frame whose payload is the concatenation of @p parts. */
void
appendFrame(std::string &out, std::initializer_list<std::string_view> parts)
{
    std::size_t len = 0;
    for (std::string_view part : parts)
        len += part.size();
    const std::size_t start = out.size();
    out.reserve(start + len + kFrameOverhead);
    putU32(out, kFrameMagic);
    putU32(out, static_cast<std::uint32_t>(len));
    for (std::string_view part : parts)
        out.append(part.data(), part.size());
    putU32(out, digest::crc32(out.data() + start + 8, len));
}

/** decodeFrame() without the copy: @p payload views into @p buf. */
FrameStatus
decodeFrameView(std::string_view buf, std::string_view &payload,
                std::size_t &consumed)
{
    if (buf.size() < 8)
        return FrameStatus::NeedMore;
    if (getU32(buf.data()) != kFrameMagic)
        return FrameStatus::BadMagic;
    std::uint32_t len = getU32(buf.data() + 4);
    if (len > kMaxFramePayload)
        return FrameStatus::TooLarge;
    std::size_t total = 8 + static_cast<std::size_t>(len) + 4;
    if (buf.size() < total)
        return FrameStatus::NeedMore;
    std::uint32_t want = getU32(buf.data() + 8 + len);
    if (digest::crc32(buf.data() + 8, len) != want)
        return FrameStatus::BadCrc;
    payload = buf.substr(8, len);
    consumed = total;
    return FrameStatus::Ok;
}

} // namespace

std::string
encodeFrame(std::string_view payload)
{
    std::string out;
    appendFrame(out, {payload});
    return out;
}

const char *
frameStatusName(FrameStatus s)
{
    switch (s) {
      case FrameStatus::Ok: return "ok";
      case FrameStatus::NeedMore: return "need-more";
      case FrameStatus::BadMagic: return "bad-magic";
      case FrameStatus::TooLarge: return "too-large";
      case FrameStatus::BadCrc: return "bad-crc";
    }
    return "?";
}

FrameStatus
decodeFrame(std::string_view buf, std::string &payload,
            std::size_t &consumed)
{
    std::string_view view;
    FrameStatus st = decodeFrameView(buf, view, consumed);
    if (st == FrameStatus::Ok)
        payload.assign(view.data(), view.size());
    return st;
}

void
appendMessage(std::string &out, std::string_view header,
              std::string_view body)
{
    std::string hlen;
    putU32(hlen, static_cast<std::uint32_t>(header.size()));
    appendFrame(out, {hlen, header, body});
}

bool
splitMessage(std::string_view payload, std::string_view &header,
             std::string_view &body)
{
    if (payload.size() < 4)
        return false;
    const std::uint32_t hlen = getU32(payload.data());
    if (hlen > payload.size() - 4)
        return false;
    header = payload.substr(4, hlen);
    body = payload.substr(4 + static_cast<std::size_t>(hlen));
    return true;
}

const char *
wireStatusName(WireStatus s)
{
    switch (s) {
      case WireStatus::Ok: return "ok";
      case WireStatus::Eof: return "eof";
      case WireStatus::Error: return "error";
      case WireStatus::Corrupt: return "corrupt";
    }
    return "?";
}

bool
writeAll(int fd, std::string_view bytes)
{
    std::size_t put = 0;
    while (put < bytes.size()) {
        ssize_t r = ::write(fd, bytes.data() + put, bytes.size() - put);
        if (r > 0) {
            put += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        return false;
    }
    return true;
}

WireStatus
FrameReader::next(std::string_view &payload)
{
    for (;;) {
        std::size_t consumed = 0;
        FrameStatus st = decodeFrameView(
            std::string_view(buf_.get() + begin_, end_ - begin_), payload,
            consumed);
        if (st == FrameStatus::Ok) {
            begin_ += consumed;
            return WireStatus::Ok;
        }
        if (st != FrameStatus::NeedMore)
            return WireStatus::Corrupt;

        // Only a frame prefix is buffered: move it to the front, grow
        // the buffer if that prefix fills it, and read more.
        if (begin_ > 0) {
            std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
            end_ -= begin_;
            begin_ = 0;
        }
        if (end_ == cap_) {
            if (cap_ == kMaxBuffered)
                return WireStatus::Corrupt;
            std::size_t grown =
                std::min(std::max(2 * cap_, kInitialBuffer), kMaxBuffered);
            auto bigger = std::make_unique_for_overwrite<char[]>(grown);
            if (end_ > 0)
                std::memcpy(bigger.get(), buf_.get(), end_);
            buf_ = std::move(bigger);
            cap_ = grown;
        }
        ssize_t r = ::read(fd_, buf_.get() + end_, cap_ - end_);
        if (r > 0) {
            end_ += static_cast<std::size_t>(r);
            continue;
        }
        if (r == 0)
            return end_ == 0 ? WireStatus::Eof : WireStatus::Error;
        if (errno != EINTR)
            return WireStatus::Error;
    }
}

} // namespace tcfill::service
