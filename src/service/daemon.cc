#include "service/daemon.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/digest.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "service/protocol.hh"
#include "service/source.hh"
#include "sim/config_io.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcfill::service
{

namespace
{

/** Append an error message frame to @p out. */
void
appendError(std::string &out, const std::string &message,
            std::uint64_t id, bool hasId)
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "error");
    if (hasId)
        w.field("id", id);
    w.field("message", message);
    w.endObject();
    appendMessage(out, header);
}

/** Append a message frame whose header holds only "type". */
void
appendTyped(std::string &out, const char *type)
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", type);
    w.endObject();
    appendMessage(out, header);
}

/** Append a result frame carrying @p record to @p out. */
void
appendResult(std::string &out, std::uint64_t id, std::uint64_t index,
             const std::string &provenance, const std::string &record)
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "result");
    w.field("id", id);
    w.field("index", index);
    w.field("cacheHit", provenance);
    w.endObject();
    appendMessage(out, header, record);
}

/** Append a progress frame: @p done of @p points answered so far. */
void
appendProgress(std::string &out, std::uint64_t id, std::uint64_t done,
               std::uint64_t points, std::uint64_t storeHits,
               std::uint64_t memoryHits, std::uint64_t computed)
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "progress");
    w.field("id", id);
    w.field("done", done);
    w.field("points", points);
    w.field("storeHits", storeHits);
    w.field("memoryHits", memoryHits);
    w.field("computed", computed);
    w.endObject();
    appendMessage(out, header);
}

/**
 * Write @p reply out once it holds kReplyFlushBytes, so no request
 * grows it further. False when the write fails.
 */
bool
flushIfFull(int fd, std::string &reply)
{
    if (reply.size() < kReplyFlushBytes)
        return true;
    if (!writeAll(fd, reply))
        return false;
    reply.clear();
    return true;
}

bool
knownWorkload(const std::string &name)
{
    for (const workloads::Workload &w : workloads::suite()) {
        if (w.name == name || w.shortName == name)
            return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// Shard worker (forked child process)
// ---------------------------------------------------------------------

void
shardWorkerMain(int fd, unsigned threads)
{
    SimRunner pool(threads);

    // All frames leave through the responder thread, in submission
    // order: results stay deterministic per shard and the socket never
    // sees interleaved writes.
    struct Pending
    {
        std::uint64_t id = 0;
        std::string name;       ///< config label to restore
        bool hit = false;       ///< pool result-cache hit
        std::shared_future<SimResult> fut;
        std::string error;      ///< when set, reply is a jobError
    };
    std::mutex qmu;
    std::condition_variable qcv;
    std::deque<Pending> queue;
    bool eof = false;

    std::thread responder([&] {
        for (;;) {
            Pending p;
            {
                std::unique_lock<std::mutex> lk(qmu);
                qcv.wait(lk, [&] { return eof || !queue.empty(); });
                if (queue.empty())
                    return;
                p = std::move(queue.front());
                queue.pop_front();
            }
            std::string header, record;
            obs::JsonWriter w(header);
            w.beginObject();
            if (!p.error.empty()) {
                w.field("type", "error");
                w.field("id", p.id);
                w.field("message", p.error);
            } else {
                SimResult res = p.fut.get();
                res.config = p.name;
                w.field("type", "result");
                w.field("id", p.id);
                w.field("cacheHit", p.hit ? "memory" : "computed");
                record = normalizedRecordText(res);
            }
            w.endObject();
            std::string frame;
            appendMessage(frame, header, record);
            if (!writeAll(fd, frame))
                return;
        }
    });

    FrameReader reader(fd);
    std::string_view payload, header, body;
    obs::JsonDocument doc;
    for (;;) {
        WireStatus st = reader.next(payload);
        if (st != WireStatus::Ok)
            break;
        const obs::JsonNode v =
            splitMessage(payload, header, body) && doc.parse(header)
            ? doc.root() : obs::JsonNode();
        Pending p;
        std::string workload;
        unsigned scale = 1;
        SimConfig cfg;
        std::string perr;
        bool ok = false;
        if (v.isObject()) {
            obs::ObjectReader r(v, "job", perr);
            std::string type;
            r.string("type", type);
            r.integer("id", p.id);
            r.string("workload", workload);
            r.integer("scale", scale);
            const obs::JsonNode c = r.member("config");
            ok = c && type == "job" && configFromJson(c, cfg, perr) &&
                r.finish();
        } else {
            perr = "malformed job frame";
        }
        if (ok) {
            p.name = cfg.name;
            p.fut = pool.submit(workload, cfg, scale, &p.hit);
        } else {
            p.error = perr;
        }
        {
            std::lock_guard<std::mutex> lk(qmu);
            queue.push_back(std::move(p));
        }
        qcv.notify_one();
    }

    {
        std::lock_guard<std::mutex> lk(qmu);
        eof = true;
    }
    qcv.notify_one();
    responder.join();
}

// ---------------------------------------------------------------------
// Daemon (parent process)
// ---------------------------------------------------------------------

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)), stats_("service")
{
    if (opts_.shards == 0)
        opts_.shards = 1;
    stats_.addCounter("connections", connCount_,
                      "client connections accepted");
    stats_.addCounter("lookups", lookupCount_,
                      "lookup requests served");
    stats_.addCounter("sweeps", sweepCount_, "sweep requests served");
    stats_.addCounter("points", pointCount_,
                      "points answered with a result");
    stats_.addCounter("storeHits", storeHitCount_,
                      "points served from the persistent store");
    stats_.addCounter("memoryHits", memoryHitCount_,
                      "points served from memory (coalesced or pool)");
    stats_.addCounter("computed", computedCount_,
                      "points freshly simulated");
    stats_.addCounter("coalesced", coalescedCount_,
                      "points attached to an in-flight duplicate");
    stats_.addCounter("dispatched", dispatchedCount_,
                      "jobs sent to shard workers");
    stats_.addCounter("completed", completedCount_,
                      "jobs answered by shard workers");
    stats_.addCounter("errors", errorCount_,
                      "error replies sent to clients");
    stats_.addCounter("progressFrames", progressFrameCount_,
                      "progress frames sent (only to sweeps asking)");
    stats_.addFormula("inFlight",
                      [this] {
                          return static_cast<double>(
                              dispatchedCount_.value() -
                              completedCount_.value());
                      },
                      "jobs currently queued at shard workers");
}

Daemon::~Daemon()
{
    // Half-close towards each shard: the child sees EOF, drains its
    // queue (writing any remaining results), and exits; the reader
    // thread then sees EOF in turn.
    for (auto &s : shards_) {
        if (s->fd >= 0)
            ::shutdown(s->fd, SHUT_WR);
    }
    for (auto &s : shards_) {
        if (s->reader.joinable())
            s->reader.join();
        if (s->fd >= 0)
            ::close(s->fd);
        if (s->pid > 0) {
            int status = 0;
            ::waitpid(s->pid, &status, 0);
        }
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (!opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
}

bool
Daemon::start(std::string &err)
{
    if (opts_.socketPath.empty()) {
        err = "daemon requires a socket path";
        return false;
    }
    sockaddr_un addr{};
    if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path '" + opts_.socketPath + "' is too long";
        return false;
    }
    std::signal(SIGPIPE, SIG_IGN);

    // Fork every shard before any thread exists in this process.
    for (unsigned i = 0; i < opts_.shards; ++i) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            err = "socketpair failed: " +
                std::string(std::strerror(errno));
            return false;
        }
        pid_t pid = ::fork();
        if (pid < 0) {
            err = "fork failed: " + std::string(std::strerror(errno));
            ::close(sv[0]);
            ::close(sv[1]);
            return false;
        }
        if (pid == 0) {
            ::close(sv[0]);
            for (auto &s : shards_)
                ::close(s->fd);
            shardWorkerMain(sv[1], opts_.shardThreads);
            ::close(sv[1]);
            std::_Exit(0);
        }
        ::close(sv[1]);
        auto s = std::make_unique<Shard>();
        s->pid = pid;
        s->fd = sv[0];
        shards_.push_back(std::move(s));
    }
    for (auto &s : shards_)
        s->reader = std::thread([this, sp = s.get()] {
            shardReaderLoop(*sp);
        });

    if (!opts_.storeDir.empty()) {
        store_ = std::make_unique<ResultStore>(opts_.storeDir,
                                               opts_.maxStoreBytes);
        if (!store_->load(err))
            return false;
    }

    ::unlink(opts_.socketPath.c_str());
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        err = "socket failed: " + std::string(std::strerror(errno));
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        err = "cannot bind '" + opts_.socketPath + "': " +
            std::string(std::strerror(errno));
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        err = "listen failed: " + std::string(std::strerror(errno));
        return false;
    }
    return true;
}

void
Daemon::requestShutdown()
{
    stop_.store(true);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
}

void
Daemon::serve()
{
    while (!stop_.load()) {
        int cfd = ::accept(listenFd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++connCount_;
        }
        std::lock_guard<std::mutex> lk(connMu_);
        // Reap connections that already finished.
        for (auto &c : connections_) {
            if (c->done.load() && c->t.joinable()) {
                c->t.join();
                ::close(c->fd);
                c->fd = -1;
            }
        }
        connections_.erase(
            std::remove_if(connections_.begin(), connections_.end(),
                           [](const std::unique_ptr<ConnSlot> &c) {
                               return c->fd < 0;
                           }),
            connections_.end());
        auto slot = std::make_unique<ConnSlot>();
        slot->fd = cfd;
        ConnSlot *raw = slot.get();
        connections_.push_back(std::move(slot));
        raw->t = std::thread([this, raw] {
            connectionLoop(raw->fd);
            // The peer sees EOF now, not when the slot is reaped.
            ::shutdown(raw->fd, SHUT_RDWR);
            raw->done.store(true);
        });
    }

    // Shutdown: unblock and join every remaining connection.
    std::lock_guard<std::mutex> lk(connMu_);
    for (auto &c : connections_) {
        if (c->fd >= 0)
            ::shutdown(c->fd, SHUT_RDWR);
    }
    for (auto &c : connections_) {
        if (c->t.joinable())
            c->t.join();
        if (c->fd >= 0)
            ::close(c->fd);
    }
    connections_.clear();
}

Daemon::Resolution
Daemon::resolvePoint(const std::string &workload, unsigned scale,
                     const SimConfig &cfg)
{
    std::string key = simPointKey(workload, scale, cfg);

    Resolution res;
    std::unique_lock<std::mutex> lk(mu_);
    if (store_ && store_->get(key, res.ready.record)) {
        res.ready.ok = true;
        res.ready.provenance = "store";
        return res;
    }
    auto it = flights_.find(key);
    if (it != flights_.end()) {
        // Identical point already being simulated: attach. The waiter
        // reports a memory hit — it cost no simulation.
        ++coalescedCount_;
        res.future = it->second->future;
        res.provenance = "memory";
        return res;
    }

    auto fl = std::make_shared<Flight>();
    fl->future = fl->promise.get_future().share();
    flights_[key] = fl;
    std::uint64_t jid = nextJobId_++;
    unsigned shard = static_cast<unsigned>(
        digest::fnv64(key) % shards_.size());
    pendingJobs_[jid] = PendingJob{key, fl, shard};
    ++dispatchedCount_;
    lk.unlock();

    std::string header;
    {
        obs::JsonWriter w(header);
        w.beginObject();
        w.field("type", "job");
        w.field("id", jid);
        w.field("workload", workload);
        w.field("scale", scale);
        w.key("config");
        configToJson(w, cfg);
        w.endObject();
    }
    std::string frame;
    appendMessage(frame, header);

    Shard &s = *shards_[shard];
    bool sent = false;
    {
        std::lock_guard<std::mutex> wl(s.writeMu);
        sent = writeAll(s.fd, frame);
    }
    if (!sent) {
        std::lock_guard<std::mutex> lk2(mu_);
        if (pendingJobs_.erase(jid) > 0) {
            flights_.erase(key);
            fl->promise.set_value(
                Outcome{false, "shard worker unavailable", "", ""});
        }
    }
    res.future = fl->future;
    return res;
}

void
Daemon::shardReaderLoop(Shard &shard)
{
    FrameReader reader(shard.fd);
    std::string_view payload, header, body;
    obs::JsonDocument doc;
    for (;;) {
        WireStatus st = reader.next(payload);
        if (st != WireStatus::Ok)
            break;
        if (!splitMessage(payload, header, body) || !doc.parse(header))
            continue;
        const obs::JsonNode v = doc.root();
        const obs::JsonNode type = v.find("type");
        const obs::JsonNode idv = v.find("id");
        if (!type.isString() || !idv.isNumber())
            continue;
        std::uint64_t id = idv.u64();

        std::shared_ptr<Flight> fl;
        std::string key;
        {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = pendingJobs_.find(id);
            if (it == pendingJobs_.end())
                continue;
            key = it->second.key;
            fl = it->second.flight;
            pendingJobs_.erase(it);
            flights_.erase(key);
            ++completedCount_;
        }
        if (type.str() == "result") {
            const obs::JsonNode hit = v.find("cacheHit");
            std::string prov(hit.isString() ? hit.str() : "computed");
            std::string record(body);
            if (store_ && !record.empty())
                store_->put(key, record);
            fl->promise.set_value(
                Outcome{true, "", std::move(prov), std::move(record)});
        } else {
            const obs::JsonNode msg = v.find("message");
            fl->promise.set_value(Outcome{
                false,
                std::string(msg.isString() ? msg.str() : "shard error"),
                "", ""});
        }
    }

    // No more replies will ever be read from this shard, even if the
    // worker is still alive (e.g. this loop ended on a corrupt frame).
    // Shut the socket down so later dispatches hashed here fail fast
    // in resolvePoint() instead of hanging their flights forever.
    ::shutdown(shard.fd, SHUT_RDWR);

    // EOF/corruption from this shard: during shutdown the pending set
    // is empty; otherwise the worker died and its jobs must fail
    // rather than hang their clients.
    std::vector<std::shared_ptr<Flight>> orphans;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = pendingJobs_.begin();
             it != pendingJobs_.end();) {
            if (shards_[it->second.shard].get() == &shard) {
                orphans.push_back(it->second.flight);
                flights_.erase(it->second.key);
                it = pendingJobs_.erase(it);
            } else {
                ++it;
            }
        }
    }
    if (!orphans.empty())
        warn("service: shard worker exited with %zu jobs pending",
             orphans.size());
    for (auto &fl : orphans)
        fl->promise.set_value(
            Outcome{false, "shard worker exited", "", ""});
}

void
Daemon::dumpStats(std::ostream &os)
{
    std::lock_guard<std::mutex> lk(mu_);
    stats_.dump(os);
}

std::string
Daemon::statsPayload()
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "stats");
    w.field("schema", kSvcSchema);
    w.field("shards", opts_.shards);
    {
        std::lock_guard<std::mutex> lk(mu_);
        w.beginObject("service");
        w.field("connections", connCount_.value());
        w.field("lookups", lookupCount_.value());
        w.field("sweeps", sweepCount_.value());
        w.field("points", pointCount_.value());
        w.field("storeHits", storeHitCount_.value());
        w.field("memoryHits", memoryHitCount_.value());
        w.field("computed", computedCount_.value());
        w.field("coalesced", coalescedCount_.value());
        w.field("dispatched", dispatchedCount_.value());
        w.field("completed", completedCount_.value());
        w.field("errors", errorCount_.value());
        w.field("progressFrames", progressFrameCount_.value());
        w.field("inFlight", dispatchedCount_.value() -
                completedCount_.value());
        w.endObject();
    }
    if (store_) {
        StoreStats s = store_->stats();
        w.beginObject("store");
        w.field("puts", s.puts);
        w.field("gets", s.gets);
        w.field("hits", s.hits);
        w.field("misses", s.misses);
        w.field("evictions", s.evictions);
        w.field("recoveredDrops", s.recoveredDrops);
        w.field("corruptDrops", s.corruptDrops);
        w.field("liveRecords", s.liveRecords);
        w.field("liveBytes", s.liveBytes);
        w.field("logBytes", s.logBytes);
        w.endObject();
    }
    w.endObject();
    return header;
}

void
Daemon::connectionLoop(int fd)
{
    FrameReader reader(fd);
    std::string_view payload, header, body;
    std::string reply;
    obs::JsonDocument doc;
    for (;;) {
        WireStatus st = reader.next(payload);
        if (st != WireStatus::Ok) {
            if (st == WireStatus::Corrupt)
                warn("service: dropping connection on corrupt frame");
            return;
        }
        reply.clear();
        const obs::JsonNode v =
            splitMessage(payload, header, body) && doc.parse(header)
            ? doc.root() : obs::JsonNode();
        const std::string_view t = v.find("type").str();
        bool quit = false;
        if (!v.isObject()) {
            std::lock_guard<std::mutex> lk(mu_);
            ++errorCount_;
            appendError(reply, "malformed message", 0, false);
        } else if (t == "hello") {
            const std::string_view peer = v.find("schema").str();
            if (peer == kSvcSchema) {
                std::string hello;
                obs::JsonWriter w(hello);
                w.beginObject();
                w.field("type", "hello");
                w.field("schema", kSvcSchema);
                w.field("shards", opts_.shards);
                w.endObject();
                appendMessage(reply, hello);
            } else {
                std::lock_guard<std::mutex> lk(mu_);
                ++errorCount_;
                appendError(reply,
                            "unsupported protocol '" +
                                std::string(peer.empty() ? "(none)"
                                                         : peer) +
                                "': this daemon speaks " + kSvcSchema,
                            0, false);
                quit = true;
            }
        } else if (t == "ping") {
            appendTyped(reply, "pong");
        } else if (t == "stats") {
            appendMessage(reply, statsPayload());
        } else if (t == "shutdown") {
            appendTyped(reply, "ok");
            writeAll(fd, reply);
            requestShutdown();
            return;
        } else if (t == "lookup") {
            handleLookup(fd, v, reply);
        } else if (t == "sweep") {
            handleSweep(fd, v, reply);
        } else {
            std::lock_guard<std::mutex> lk(mu_);
            ++errorCount_;
            appendError(reply,
                        "unknown message type '" + std::string(t) + "'",
                        0, false);
        }
        if (!reply.empty() && !writeAll(fd, reply))
            return;
        if (quit)
            return;
    }
}

void
Daemon::handleLookup(int fd, obs::JsonNode v, std::string &reply)
{
    const std::uint64_t id = v.find("id").u64();
    const bool wantProgress = v.find("progress").boolean();
    const obs::JsonNode keys = v.find("keys");
    std::string perr;
    if (!keys.isArray() || keys.size() == 0)
        perr = "lookup has no keys";
    std::uint64_t i = 0;
    for (const obs::JsonNode k : keys.elements()) {
        if (!k.isString()) {
            perr = "lookup.keys[" + std::to_string(i) +
                "] is not a string";
            break;
        }
        ++i;
    }
    if (!perr.empty()) {
        std::lock_guard<std::mutex> lk(mu_);
        ++errorCount_;
        appendError(reply, perr, id, true);
        return;
    }

    // The store alone answers: a key needs no config, and a miss is
    // the client's to sweep, so nothing here coalesces or simulates.
    const std::uint64_t points = keys.size();
    std::uint64_t hits = 0;
    std::string key, record, header;
    i = 0;
    for (const obs::JsonNode k : keys.elements()) {
        key = k.str();
        if (store_ && store_->get(key, record)) {
            ++hits;
            appendResult(reply, id, i, "store", record);
            if (wantProgress)
                appendProgress(reply, id, hits, points, hits, 0, 0);
        } else {
            header.clear();
            obs::JsonWriter w(header);
            w.beginObject();
            w.field("type", "miss");
            w.field("id", id);
            w.field("index", i);
            w.endObject();
            appendMessage(reply, header);
        }
        ++i;
        if (!flushIfFull(fd, reply))
            return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++lookupCount_;
        pointCount_ += hits;
        storeHitCount_ += hits;
        if (wantProgress)
            progressFrameCount_ += hits;
    }

    header.clear();
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "done");
    w.field("id", id);
    w.field("points", points);
    w.field("storeHits", hits);
    w.endObject();
    appendMessage(reply, header);
}

void
Daemon::handleSweep(int fd, obs::JsonNode v, std::string &reply)
{
    const std::uint64_t id = v.find("id").u64();
    const bool wantProgress = v.find("progress").boolean();
    const obs::JsonNode pts = v.find("points");
    if (!pts.isArray() || pts.size() == 0) {
        std::lock_guard<std::mutex> lk(mu_);
        ++errorCount_;
        appendError(reply, "sweep has no points", id, true);
        return;
    }

    // Parse and validate every point before dispatching any, so a
    // malformed request costs no simulation.
    struct Point
    {
        std::string workload;
        unsigned scale = 1;
        SimConfig cfg;
    };
    std::vector<Point> points;
    points.reserve(pts.size());
    for (const obs::JsonNode e : pts.elements()) {
        Point p;
        std::string perr;
        obs::ObjectReader r(e, "sweep.points", perr);
        r.string("workload", p.workload);
        r.integer("scale", p.scale);
        const obs::JsonNode c = r.member("config");
        bool ok = c && configFromJson(c, p.cfg, perr) && r.finish();
        if (ok && (p.scale == 0 || p.scale > kMaxSweepScale)) {
            ok = false;
            perr = "sweep.points: scale must be between 1 and " +
                std::to_string(kMaxSweepScale);
        }
        // SimConfig::check() bounds the timeline's rows only under
        // maxInsts; without it, one row per interval for the whole
        // run, however large its scale.
        if (ok && p.cfg.statsInterval != 0 && p.cfg.maxInsts == 0) {
            ok = false;
            perr = "sweep.points: statsInterval needs a maxInsts "
                   "bound (one timeline row per interval)";
        }
        if (ok && !knownWorkload(p.workload)) {
            ok = false;
            perr = "unknown workload '" + p.workload + "'";
        }
        if (!ok) {
            std::lock_guard<std::mutex> lk(mu_);
            ++errorCount_;
            appendError(reply, perr, id, true);
            return;
        }
        points.push_back(std::move(p));
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        ++sweepCount_;
        pointCount_ += points.size();
    }

    std::vector<Resolution> res;
    res.reserve(points.size());
    for (const Point &p : points)
        res.push_back(resolvePoint(p.workload, p.scale, p.cfg));

    std::uint64_t storeHits = 0, memoryHits = 0, computed = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        const Resolution &r = res[i];
        if (r.future.valid() && !reply.empty() &&
            r.future.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
            // About to block on a simulation: send what is ready.
            if (!writeAll(fd, reply))
                return;
            reply.clear();
        }
        const Outcome &out = r.future.valid() ? r.future.get() : r.ready;
        if (!out.ok) {
            std::lock_guard<std::mutex> lk(mu_);
            ++errorCount_;
            appendError(reply, out.error, id, true);
            return;
        }
        const std::string &prov =
            r.provenance.empty() ? out.provenance : r.provenance;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (prov == "store")
                ++storeHitCount_;
            else if (prov == "memory")
                ++memoryHitCount_;
            else
                ++computedCount_;
            if (wantProgress)
                ++progressFrameCount_;
        }
        if (prov == "store")
            ++storeHits;
        else if (prov == "memory")
            ++memoryHits;
        else
            ++computed;

        appendResult(reply, id, i, prov, out.record);
        if (wantProgress)
            appendProgress(reply, id, i + 1, points.size(), storeHits,
                           memoryHits, computed);
        if (!flushIfFull(fd, reply))
            return;
    }

    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", "done");
    w.field("id", id);
    w.field("points", static_cast<std::uint64_t>(points.size()));
    w.field("storeHits", storeHits);
    w.field("memoryHits", memoryHits);
    w.field("computed", computed);
    w.endObject();
    appendMessage(reply, header);
}

} // namespace tcfill::service
