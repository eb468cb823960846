/**
 * @file
 * Persistent content-addressed result store ("tcfstor1"). Maps
 * simulation-point keys — simPointKey(): workload@scale plus the full
 * configCacheKey text of every knob — to deterministic SimResult record
 * text (sim/result_io). The on-disk format is a single append-only
 * log, results.tcfstore:
 *
 *   header   "tcfstor1" (8 bytes) + u32 LE version (1)
 *   records, each CRC-terminated like tcfill-trace-v1 frames:
 *     PUT    u8 0x01, varint keyLen, key, varint valLen, value,
 *            u32 LE CRC-32(key || value)
 *     TOUCH  u8 0x02, varint keyLen, key, u32 LE CRC-32(key)
 *     ERASE  u8 0x03, varint keyLen, key, u32 LE CRC-32(key)
 *
 * load() replays the log into an in-memory index, one whole record
 * (known op, a key that is not empty, lengths that fit the log, a CRC
 * that verifies) at a time. Where the bytes at the replay point are
 * not a whole record — rot in a key or value, or in a length byte
 * that misframes what follows — replay resumes at the next offset
 * where a whole record starts, so the damage costs only the records
 * it touched (each skipped stretch counts in corruptDrops). A tail
 * that holds no whole record is torn: the log is truncated back to
 * the last whole record (a crash mid-append costs at most the records
 * being written). The log format itself has no resync marker: ops,
 * lengths and the CRC are enough, because no key is empty. A false
 * start must verify the CRC over at least one key byte, a 1-in-2^32
 * chance; a record with an empty key would verify over any run of
 * zeros (the CRC-32 of no bytes is 0), as a zero-filled torn tail
 * holds, so put() refuses an empty key and replay never reads one.
 * Every get() re-reads its value bytes from disk and re-verifies the
 * CRC, so silent on-disk corruption of one record degrades to a miss
 * for that key, never a wrong result.
 *
 * A get() writes nothing. It moves its key to the front of the LRU
 * list in memory and marks it; the marked keys are always a prefix of
 * that list, because nothing else reorders it without appending. Each
 * append (a put(), with its evictions' ERASEs, or an erase()) is one
 * pwrite that begins with one TOUCH per marked key, from the far end
 * of the prefix to the front, so replaying the log rebuilds the live
 * LRU order exactly. The destructor writes pending TOUCHes too, and
 * so does a get() once kMaxPendingTouchBytes of them wait; compact()
 * rewrites the log in the live order, which subsumes them. A crash
 * therefore loses only the recency of keys read since the last write,
 * never a record. When maxBytes is set, put() evicts least-recently-
 * used entries (appending ERASE) until live key+value bytes fit.
 * compact() rewrites the log with one PUT per live entry in LRU order
 * and swaps it in atomically via rename.
 *
 * All public methods are thread-safe behind one internal mutex.
 */

#ifndef TCFILL_SERVICE_STORE_HH
#define TCFILL_SERVICE_STORE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace tcfill::service
{

/** Monotonic operation counters, for `service.` stats and tooling. */
struct StoreStats
{
    std::uint64_t puts = 0;         ///< accepted put() calls
    std::uint64_t gets = 0;         ///< get() calls
    std::uint64_t hits = 0;         ///< get() calls returning a value
    std::uint64_t misses = 0;       ///< get() calls without one
    std::uint64_t evictions = 0;    ///< entries dropped for the cap
    std::uint64_t recoveredDrops = 0; ///< loads that truncated a torn tail
    std::uint64_t corruptDrops = 0; ///< damaged stretches load skipped,
                                    ///< get() CRC invalidations
    std::uint64_t liveRecords = 0;  ///< keys currently resident
    std::uint64_t liveBytes = 0;    ///< live key+value payload bytes
    std::uint64_t logBytes = 0;     ///< log size incl. header, counting
                                    ///< pending TOUCHes as written
};

class ResultStore
{
  public:
    /**
     * @param dir       store directory (created if missing)
     * @param maxBytes  live key+value byte cap; 0 = unbounded
     */
    ResultStore(std::string dir, std::uint64_t maxBytes = 0);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Open/replay the log. False + @p err on unrecoverable failure. */
    bool load(std::string &err);

    /**
     * Fetch the value for @p key, CRC-verifying the on-disk bytes and
     * refreshing its LRU position in memory (its TOUCH record waits
     * for the next write). False on miss (or on a corrupt record,
     * which is invalidated in passing).
     */
    bool get(const std::string &key, std::string &value);

    /**
     * Insert/overwrite @p key, evicting LRU entries past the cap.
     * False when the append fails or @p key is empty (load() would
     * not replay an empty key).
     */
    bool put(const std::string &key, const std::string &value);

    /** Drop @p key if present (appends ERASE). */
    bool erase(const std::string &key);

    /**
     * Rewrite the log to exactly the live entries (least-recently
     * used first) and atomically replace it. Reclaims space held by
     * overwritten, erased, and TOUCH records.
     */
    bool compact(std::string &err);

    std::uint64_t size() const;
    StoreStats stats() const;
    const std::string &path() const { return path_; }

    /** Pending TOUCH bytes that make a get() write them out. */
    static constexpr std::uint64_t kMaxPendingTouchBytes = 64 * 1024;

  private:
    struct Entry;
    /// An index node: a key and its entry. Nodes never move.
    using Node = std::pair<const std::string, Entry>;

    struct Entry
    {
        std::uint64_t valueOffset = 0;  ///< value bytes, within the log
        std::uint32_t valueLen = 0;
        std::uint32_t crc = 0;          ///< CRC-32(key || value)
        bool marked = false;            ///< read since the last write
        std::list<Node *>::iterator lruIt;
    };

    bool replayLog(const std::string &log, std::string &err);
    /** Index a key absent from index_ as the most recently used. */
    void insertLocked(std::string key, const Entry &e);
    /** Move @p n to the LRU front and mark it (a get()'s bookkeeping). */
    void markLocked(Node &n);
    /** Unindex @p key (no record; the caller logs what it must). */
    void dropLocked(const std::string &key);
    /** Append the marked prefix's TOUCHes, far end first; unmark it. */
    void takeTouchesLocked(std::string &records);
    /** Write @p records at the log's end in one pwrite. */
    bool writeLocked(const std::string &records);
    /** Unindex @p key and write the pending TOUCHes and its ERASE. */
    bool eraseLocked(const std::string &key);
    bool readValueLocked(const std::string &key, const Entry &e,
                         std::string &value);

    mutable std::mutex mu_;
    std::string dir_;
    std::string path_;
    std::uint64_t maxBytes_;
    int fd_ = -1;
    std::uint64_t logBytes_ = 0;        ///< on-disk log size
    std::uint64_t pendingBytes_ = 0;    ///< TOUCH bytes not yet written
    std::size_t marked_ = 0;            ///< length of the marked prefix
    std::unordered_map<std::string, Entry> index_;
    /// index_'s nodes, front = most recently used: each key is held
    /// once, however long.
    std::list<Node *> lru_;
    StoreStats stats_;
};

} // namespace tcfill::service

#endif // TCFILL_SERVICE_STORE_HH
