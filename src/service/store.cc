#include "service/store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/digest.hh"
#include "common/logging.hh"
#include "tracefile/format.hh"

namespace tcfill::service
{

namespace
{

constexpr char kStoreMagic[8] = {'t', 'c', 'f', 's', 't', 'o', 'r', '1'};
constexpr std::uint32_t kStoreVersion = 1;
constexpr std::size_t kHeaderBytes = 12;

constexpr std::uint8_t kOpPut = 0x01;
constexpr std::uint8_t kOpTouch = 0x02;
constexpr std::uint8_t kOpErase = 0x03;

void
putU32(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

bool
getU32(const std::string &buf, std::size_t &pos, std::uint32_t &v)
{
    if (buf.size() - pos < 4)
        return false;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(buf.data() + pos);
    v = static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    pos += 4;
    return true;
}

std::uint32_t
entryCrc(const std::string &key, const std::string &value)
{
    std::uint32_t crc = digest::crc32(key.data(), key.size());
    return digest::crc32(value.data(), value.size(), crc);
}

/** One log record, located by its framing. */
struct Framed
{
    std::uint8_t op = 0;
    std::size_t keyOff = 0, keyLen = 0;
    std::size_t valOff = 0, valLen = 0;
    std::uint32_t crc = 0;      ///< the CRC the record carries
    std::size_t end = 0;        ///< one past the record
};

/**
 * Frame the record at @p pos of @p log into @p r; true when its op is
 * known, its key is not empty, its lengths fit the log and its CRC
 * verifies. put() stores no empty key, and one would verify over any
 * run of zeros (the CRC-32 of no bytes is 0), so it is refused.
 */
bool
wholeRecordAt(const std::string &log, std::size_t pos, Framed &r)
{
    r.op = static_cast<std::uint8_t>(log[pos++]);
    std::uint64_t keyLen = 0, valLen = 0;
    if ((r.op != kOpPut && r.op != kOpTouch && r.op != kOpErase) ||
        !tracefile::getVarint(log, pos, keyLen) || keyLen == 0 ||
        log.size() - pos < keyLen)
        return false;
    r.keyOff = pos;
    r.keyLen = keyLen;
    pos += keyLen;
    if (r.op == kOpPut &&
        (!tracefile::getVarint(log, pos, valLen) ||
         log.size() - pos < valLen))
        return false;
    r.valOff = pos;
    r.valLen = valLen;
    pos += valLen;
    if (!getU32(log, pos, r.crc))
        return false;
    r.end = pos;
    const std::uint32_t crc = digest::crc32(log.data() + r.keyOff, r.keyLen);
    return digest::crc32(log.data() + r.valOff, r.valLen, crc) == r.crc;
}

std::string
headerBytes()
{
    std::string h(kStoreMagic, sizeof(kStoreMagic));
    putU32(h, kStoreVersion);
    return h;
}

bool
writeFully(int fd, const char *src, std::size_t n)
{
    std::size_t put = 0;
    while (put < n) {
        ssize_t r = ::write(fd, src + put, n - put);
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

} // namespace

ResultStore::ResultStore(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir)), path_(dir_ + "/results.tcfstore"),
      maxBytes_(maxBytes)
{
}

ResultStore::~ResultStore()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ResultStore::load(std::string &err)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        err = "cannot create store dir '" + dir_ + "': " + ec.message();
        return false;
    }
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        err = "cannot open '" + path_ + "': " +
            std::string(std::strerror(errno));
        return false;
    }
    // One process owns the log at a time: a daemon and an offline
    // --compact racing on the same dir would rename a fresh inode
    // under the other's open fd and silently drop its appends.
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        err = "'" + path_ + "' is locked by another process "
            "(a running tcfilld or --compact); refusing to open";
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
        err = "cannot size '" + path_ + "'";
        return false;
    }
    if (end == 0) {
        std::string h = headerBytes();
        if (!writeFully(fd_, h.data(), h.size())) {
            err = "cannot write store header to '" + path_ + "'";
            return false;
        }
        logBytes_ = h.size();
        stats_.logBytes = logBytes_;
        return true;
    }
    std::string log(static_cast<std::size_t>(end), '\0');
    std::size_t got = 0;
    while (got < log.size()) {
        ssize_t r = ::pread(fd_, log.data() + got, log.size() - got,
                            static_cast<off_t>(got));
        if (r > 0) {
            got += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        err = "cannot read '" + path_ + "'";
        return false;
    }
    return replayLog(log, err);
}

bool
ResultStore::replayLog(const std::string &log, std::string &err)
{
    if (log.size() < kHeaderBytes ||
        std::memcmp(log.data(), kStoreMagic, sizeof(kStoreMagic)) != 0) {
        err = "'" + path_ + "' is not a tcfstor1 result store";
        return false;
    }
    std::size_t vpos = sizeof(kStoreMagic);
    std::uint32_t version = 0;
    getU32(log, vpos, version);
    if (version != kStoreVersion) {
        err = "'" + path_ + "' has unsupported store version " +
            std::to_string(version);
        return false;
    }

    index_.clear();
    lru_.clear();
    stats_.liveBytes = 0;
    // Replay every whole record: one that frames and verifies. At a
    // record that does not, neither its contents nor its lengths can
    // be trusted (a rotted length byte misframes what follows), so
    // replay resumes at the next offset where a whole record starts
    // and the bytes in between cost only themselves. Only a tail that
    // holds no whole record is torn (a crash mid-append): it is
    // truncated.
    std::size_t pos = kHeaderBytes;
    std::uint64_t skipped = 0;
    bool torn = false;
    Framed r;
    while (pos < log.size()) {
        if (!wholeRecordAt(log, pos, r)) {
            std::size_t next = pos + 1;
            while (next < log.size() && !wholeRecordAt(log, next, r))
                ++next;
            if (next == log.size()) {
                torn = true;
                break;
            }
            ++skipped;
        }
        pos = r.end;
        std::string key = log.substr(r.keyOff, r.keyLen);
        auto it = index_.find(key);
        if (r.op == kOpPut) {
            if (it != index_.end())
                dropLocked(key, /*logErase=*/false);
            Entry e;
            e.valueOffset = r.valOff;
            e.valueLen = static_cast<std::uint32_t>(r.valLen);
            e.crc = r.crc;
            stats_.liveBytes += key.size() + r.valLen;
            insertLocked(std::move(key), e);
        } else if (it != index_.end()) {
            if (r.op == kOpTouch)
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            else
                dropLocked(key, /*logErase=*/false);
        }
    }

    if (skipped != 0) {
        stats_.corruptDrops += skipped;
        warn("result store '%s': skipped %llu damaged stretches of the "
             "log", path_.c_str(),
             static_cast<unsigned long long>(skipped));
    }
    logBytes_ = pos;
    if (torn) {
        // Crash-torn tail: drop it so future appends land on a clean
        // boundary.
        stats_.recoveredDrops++;
        warn("result store '%s': dropping %zu torn trailing bytes",
             path_.c_str(), log.size() - pos);
        if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
            err = "cannot truncate torn tail of '" + path_ + "'";
            return false;
        }
    }
    stats_.liveRecords = index_.size();
    stats_.logBytes = logBytes_;
    return true;
}

bool
ResultStore::appendRecord(const std::string &record)
{
    if (::lseek(fd_, static_cast<off_t>(logBytes_), SEEK_SET) < 0)
        return false;
    if (!writeFully(fd_, record.data(), record.size()))
        return false;
    logBytes_ += record.size();
    stats_.logBytes = logBytes_;
    return true;
}

void
ResultStore::insertLocked(std::string key, const Entry &e)
{
    auto it = index_.emplace(std::move(key), e).first;
    lru_.push_front(&it->first);
    it->second.lruIt = lru_.begin();
}

void
ResultStore::touchLocked(const std::string &key, Entry &e)
{
    if (e.lruIt == lru_.begin())
        return;
    lru_.splice(lru_.begin(), lru_, e.lruIt);
    std::string record;
    record.push_back(static_cast<char>(kOpTouch));
    tracefile::putVarint(record, key.size());
    record += key;
    putU32(record, digest::crc32(key.data(), key.size()));
    appendRecord(record);
}

void
ResultStore::dropLocked(const std::string &key, bool logErase)
{
    auto it = index_.find(key);
    if (it == index_.end())
        return;
    stats_.liveBytes -= key.size() + it->second.valueLen;
    lru_.erase(it->second.lruIt);
    index_.erase(it);
    stats_.liveRecords = index_.size();
    if (logErase) {
        std::string record;
        record.push_back(static_cast<char>(kOpErase));
        tracefile::putVarint(record, key.size());
        record += key;
        putU32(record, digest::crc32(key.data(), key.size()));
        appendRecord(record);
    }
}

bool
ResultStore::readValueLocked(const std::string &key, const Entry &e,
                             std::string &value)
{
    value.resize(e.valueLen);
    std::size_t got = 0;
    while (got < value.size()) {
        ssize_t r = ::pread(
            fd_, value.data() + got, value.size() - got,
            static_cast<off_t>(e.valueOffset + got));
        if (r > 0) {
            got += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        return false;
    }
    return entryCrc(key, value) == e.crc;
}

bool
ResultStore::get(const std::string &key, std::string &value)
{
    std::lock_guard<std::mutex> lk(mu_);
    stats_.gets++;
    auto it = index_.find(key);
    if (it == index_.end()) {
        stats_.misses++;
        return false;
    }
    if (!readValueLocked(key, it->second, value)) {
        // The bytes under this entry rotted on disk; invalidate it so
        // the caller recomputes rather than trusting them.
        stats_.corruptDrops++;
        stats_.misses++;
        warn("result store '%s': CRC mismatch, invalidating one entry",
             path_.c_str());
        dropLocked(key, /*logErase=*/true);
        return false;
    }
    touchLocked(key, it->second);
    stats_.hits++;
    return true;
}

bool
ResultStore::put(const std::string &key, const std::string &value)
{
    if (key.empty())
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end())
        dropLocked(key, /*logErase=*/false);

    std::string record;
    record.push_back(static_cast<char>(kOpPut));
    tracefile::putVarint(record, key.size());
    record += key;
    tracefile::putVarint(record, value.size());
    std::size_t valRel = record.size();
    record += value;
    std::uint32_t crc = entryCrc(key, value);
    putU32(record, crc);

    std::uint64_t valOff = logBytes_ + valRel;
    if (!appendRecord(record))
        return false;

    Entry e;
    e.valueOffset = valOff;
    e.valueLen = static_cast<std::uint32_t>(value.size());
    e.crc = crc;
    insertLocked(key, e);
    stats_.liveBytes += key.size() + value.size();
    stats_.liveRecords = index_.size();
    stats_.puts++;

    // Size cap: shed least-recently-used entries, always keeping the
    // entry just written. Copy the victim key: dropLocked() erases the
    // index node whose key lru_.back() points at, then logs an ERASE
    // record built from the key.
    while (maxBytes_ != 0 && stats_.liveBytes > maxBytes_ &&
           lru_.size() > 1) {
        std::string victim = *lru_.back();
        dropLocked(victim, /*logErase=*/true);
        stats_.evictions++;
    }
    return true;
}

bool
ResultStore::erase(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (index_.find(key) == index_.end())
        return false;
    dropLocked(key, /*logErase=*/true);
    return true;
}

bool
ResultStore::compact(std::string &err)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string fresh = headerBytes();
    // Replaying PUTs pushes each key to the LRU front, so writing
    // least-recent first reproduces today's recency order on reload.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        const std::string &key = **it;
        const Entry &e = index_.at(key);
        std::string value;
        if (!readValueLocked(key, e, value)) {
            err = "corrupt entry during compaction of '" + path_ + "'";
            return false;
        }
        fresh.push_back(static_cast<char>(kOpPut));
        tracefile::putVarint(fresh, key.size());
        fresh += key;
        tracefile::putVarint(fresh, value.size());
        fresh += value;
        putU32(fresh, e.crc);
    }

    std::string tmp = path_ + ".tmp";
    int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) {
        err = "cannot open '" + tmp + "' for compaction";
        return false;
    }
    bool ok = writeFully(tfd, fresh.data(), fresh.size()) &&
        ::fsync(tfd) == 0;
    ::close(tfd);
    if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0) {
        err = "cannot replace '" + path_ + "' with compacted log";
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR, 0644);
    if (fd_ < 0) {
        err = "cannot reopen compacted '" + path_ + "'";
        return false;
    }
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
        err = "cannot re-lock compacted '" + path_ + "'";
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    return replayLog(fresh, err);
}

std::uint64_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return index_.size();
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace tcfill::service
