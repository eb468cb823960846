/**
 * @file
 * tcfilld core: a long-lived simulation service. One parent process
 * owns the Unix-domain listening socket, the persistent ResultStore
 * and the request-coalescing flight table; simulation itself runs in
 * a set of forked *shard* worker processes, each holding its own
 * SimRunner pool and in-memory result cache, connected to the parent
 * by a socketpair speaking tcfill-svc-v3 job frames.
 *
 * A lookup names points by their simPointKey text and is answered
 * from the store alone: a result frame ("store") per stored key and a
 * miss frame per other key. It parses no config and builds no key,
 * so a repeated point costs a store read and nothing else.
 *
 * A sweep request is refused whole, with an error frame, when any
 * point names an unknown workload or a config the model cannot run
 * (configFromJson applies SimConfig::check), so no shard ever sees
 * such a point. Otherwise it resolves each point in order, keyed by
 * the simPointKey of its parsed config:
 *
 *   1. persistent store hit        → "store"   (answered inline: no
 *      shard, no future)
 *   2. identical point in flight   → "memory"  (coalesced: attach to
 *      the existing future; two identical concurrent requests cost
 *      one simulation)
 *   3. dispatch to shard fnv64(simPointKey) % shards; the shard
 *      answers "memory" (its pool cache) or "computed", and the
 *      parent persists the returned record before replying.
 *
 * Only a sweep stores records, and under the key its own config
 * produces, so a client can never file a record under a wrong key.
 * The shard hash is stable, so a recurring point always lands on the
 * same shard and its program/result caches stay hot. Results stream
 * back to the client in request order, each carrying the record's
 * bytes as the store holds them, with progress frames interleaved
 * when the request asked for them (the client-side obs::ProgressFn
 * seam). A reply's frames collect in one buffer that is written when
 * the reply ends, once it passes kReplyFlushBytes, or just before the
 * daemon blocks on a point still being simulated.
 *
 * Fork-before-threads: start() forks every shard before the parent
 * creates its reader/accept threads, so shard children never inherit
 * a multi-threaded address space.
 */

#ifndef TCFILL_SERVICE_DAEMON_HH
#define TCFILL_SERVICE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "common/stats.hh"
#include "service/store.hh"
#include "sim/config.hh"

namespace tcfill::obs
{
class JsonNode;
} // namespace tcfill::obs

namespace tcfill::service
{

struct DaemonOptions
{
    std::string socketPath;         ///< Unix-domain socket to bind
    std::string storeDir;           ///< empty = no persistent store
    std::uint64_t maxStoreBytes = 0; ///< live-bytes cap; 0 = unbounded
    unsigned shards = 1;            ///< worker processes (>= 1)
    unsigned shardThreads = 0;      ///< per-shard pool; 0 = default
};

class Daemon
{
  public:
    explicit Daemon(DaemonOptions opts);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Fork the shard workers, open the store, bind and listen. False
     * + @p err on failure. Must be called from a process that has not
     * started threads yet (the shards are forked here).
     */
    bool start(std::string &err);

    /** Accept and serve connections until requestShutdown(). */
    void serve();

    /**
     * Stop serve() from another thread or a signal handler: flips the
     * stop flag and shuts down the listening socket (both
     * async-signal-safe).
     */
    void requestShutdown();

    const DaemonOptions &options() const { return opts_; }
    ResultStore *store() { return store_.get(); }

    /** Text dump of the `service.` counter group. */
    void dumpStats(std::ostream &os);

  private:
    /** How one requested point was (or failed to be) satisfied. */
    struct Outcome
    {
        bool ok = false;
        std::string error;
        std::string provenance;     ///< store | memory | computed
        std::string record;         ///< deterministic result record
    };

    /** One in-flight simulation point, shared by coalesced waiters. */
    struct Flight
    {
        std::promise<Outcome> promise;
        std::shared_future<Outcome> future;
    };

    struct Shard
    {
        pid_t pid = -1;
        int fd = -1;                ///< parent end of the socketpair
        std::mutex writeMu;         ///< serializes job frames
        std::thread reader;
    };

    struct Resolution
    {
        /// A store hit, answered inline; used when `future` is empty.
        Outcome ready;
        std::shared_future<Outcome> future;
        /// Provenance override for coalesced waiters ("memory"); the
        /// outcome's own provenance applies when empty.
        std::string provenance;
    };

    struct PendingJob
    {
        std::string key;
        std::shared_ptr<Flight> flight;
        unsigned shard = 0;
    };

    struct ConnSlot
    {
        int fd = -1;
        std::thread t;
        std::atomic<bool> done{false};
    };

    Resolution resolvePoint(const std::string &workload, unsigned scale,
                            const SimConfig &cfg);
    void shardReaderLoop(Shard &shard);
    void connectionLoop(int fd);
    /** Answer one lookup: frames go to @p reply, flushed to @p fd. */
    void handleLookup(int fd, obs::JsonNode v, std::string &reply);
    /** Answer one sweep: frames go to @p reply, flushed to @p fd. */
    void handleSweep(int fd, obs::JsonNode v, std::string &reply);
    std::string statsPayload();

    DaemonOptions opts_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    std::unique_ptr<ResultStore> store_;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::mutex mu_;                 ///< flights, jobs, counters
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
    std::unordered_map<std::uint64_t, PendingJob> pendingJobs_;
    std::uint64_t nextJobId_ = 1;

    std::mutex connMu_;
    std::vector<std::unique_ptr<ConnSlot>> connections_;

    // `service.` stats group: counters mutate only under mu_.
    stats::Group stats_;
    stats::Counter connCount_;
    stats::Counter lookupCount_;
    stats::Counter sweepCount_;
    stats::Counter pointCount_;
    stats::Counter storeHitCount_;
    stats::Counter memoryHitCount_;
    stats::Counter computedCount_;
    stats::Counter coalescedCount_;
    stats::Counter dispatchedCount_;
    stats::Counter completedCount_;
    stats::Counter errorCount_;
    stats::Counter progressFrameCount_;
};

/**
 * Shard worker entry point (runs in the forked child): serve job
 * frames on @p fd with a SimRunner of @p threads workers until EOF,
 * then drain and return. Exposed for the protocol tests.
 */
void shardWorkerMain(int fd, unsigned threads);

} // namespace tcfill::service

#endif // TCFILL_SERVICE_DAEMON_HH
