/**
 * @file
 * svc-mixed: an in-process tcfilld (service::Daemon) with a fresh
 * store, 2 shards and 1 thread per shard, and one client connection
 * running a closed loop of single-point requests over small-budget
 * points (compress/li x pass mask x fill latency x budget). Most
 * requests repeat an earlier point and are served from the store; the
 * rest are fresh, so a shard simulates them and the daemon appends
 * them to the store. The mix (one fresh request in kFreshEvery) is an
 * assumption, not a measured usage: it gives store-served requests
 * about a third of the loop's wall time, and each run prints the
 * measured share.
 *
 * The daemon forks its shards in start(), so set-up runs before this
 * process creates any thread, as bench/perf_service does.
 *
 * Host time: each window of the loop samples a HostRef piece every
 * kRefEvery requests and scales its times by the median factor; each
 * metric is the median over the windows.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include <sched.h>

#include "bench.hh"
#include "common/digest.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/source.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;

namespace
{

using Point = service::ServiceClient::Point;

constexpr unsigned kShards = 2;
/**
 * One request in every block of this many asks for a point not asked
 * before, at a seeded position, so every window holds the same mix.
 */
constexpr std::uint64_t kFreshEvery = 50;
/** Budgets a point draws from: far more points than a run can ask. */
constexpr std::uint64_t kBudgets = 1000;
/** Draws of an already-asked point in a row before the run fails. */
constexpr unsigned kFreshTries = 64;
/** ipc_geomean covers this many first fresh points of the sequence. */
constexpr std::size_t kIpcPoints = 64;
/** Codec probe repetitions. */
constexpr unsigned kCodecProbes = 2000;
/**
 * Requests per measurement window: 1,029 store hits (p99 has 10
 * beyond it) and 21 fresh points (the median has 10).
 */
constexpr std::uint64_t kWindowRequests = 1050;
/** Requests between HostRef pieces (three per window). */
constexpr std::uint64_t kRefEvery = 350;
const char *const kKernels[] = {"compress", "li"};

/** What one window of the closed loop observed. */
struct Window
{
    std::uint64_t requests = 0;
    std::uint64_t answered = 0;     ///< instructions in all replies
    std::uint64_t missInsts = 0;    ///< instructions in fresh replies
    double missS = 0;               ///< round trips of fresh requests
    double hitS = 0;                ///< round trips of store hits
    double wall = 0;                ///< loop wall, less HostRef pieces
    std::vector<double> factors;    ///< HostRef factors
    std::vector<double> hitUs, missMs;
};

/**
 * One small-budget point: kernel x pass mask x latency x budget, one
 * of 2 x 32 x 3 x kBudgets.
 */
Point
drawPoint(Random &rng)
{
    Point p;
    p.workload = kKernels[rng.below(2)];
    const auto mask = static_cast<PassMask>(rng.below(kPassMaskEvery + 1));
    const Cycle lat = kFillLatencies[rng.below(3)];
    SimConfig cfg = SimConfig::withOpts(optsFromPassMask(mask), lat);
    cfg.maxInsts = 20'000 + 8 * rng.below(kBudgets);
    cfg.name = "opts=" + passMaskName(mask) + "+lat=" +
        std::to_string(lat) + "+insts=" + std::to_string(cfg.maxInsts);
    p.config = cfg;
    return p;
}

/**
 * Pins the calling thread, and every thread and shard process it
 * starts, to the first CPU it may use; restores the old mask when
 * destroyed. The closed loop never has two runnable threads, and on a
 * virtual machine a wakeup across CPUs costs tens of microseconds that
 * vary with the host's load: pinned, a store hit's round trip is
 * ~25% shorter and steadier.
 */
class PinToOneCpu
{
  public:
    PinToOneCpu()
    {
        if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_)) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(c, &one);
                pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
                return;
            }
        }
    }
    ~PinToOneCpu()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    PinToOneCpu(const PinToOneCpu &) = delete;
    PinToOneCpu &operator=(const PinToOneCpu &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

double
statsField(const obs::JsonValue &doc, const char *group, const char *name)
{
    const obs::JsonValue *g = doc.find(group);
    const obs::JsonValue *v = g ? g->find(name) : nullptr;
    return v && v->isNumber() ? v->num() : 0.0;
}

} // namespace

Report
runService(const Options &o, Spans &spans)
{
    Report rep;
    const std::string dir = o.runDir + "/svc";
    service::DaemonOptions dopts;
    dopts.socketPath = dir + "/s.sock";
    dopts.storeDir = dir + "/store";
    dopts.shards = kShards;
    dopts.shardThreads = 1;
    // Everything up to the in-process reference check runs pinned.
    std::optional<PinToOneCpu> pin(std::in_place);

    // Set-up: kernel builds plus daemon start (shard forks, store
    // open, bind) on a fresh store. Repeated before the loop, where the
    // last daemon serves, and after it, once this process is back to
    // one thread.
    std::vector<double> setup, builds;
    std::string err;
    HostRef host;
    auto startDaemon = [&]() -> std::unique_ptr<service::Daemon> {
        const double factor = host.factor();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir, ec);
        std::unique_ptr<service::Daemon> d;
        bool ok = false;
        double build = 0;
        const double total = timed(spans, "service.setup", [&] {
            build = timed(spans, "workloads.build", [&] {
                for (const char *k : kKernels)
                    (void)workloads::build(k);
            });
            d = std::make_unique<service::Daemon>(dopts);
            Spans::Scope start(spans, "service.start");
            ok = d->start(err);
        });
        if (!rep.check(ok, "daemon start: " + err))
            return nullptr;
        setup.push_back(total * factor);
        builds.push_back(build * factor);
        return d;
    };
    spans.setActive(o.trace);
    std::unique_ptr<service::Daemon> daemon;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        daemon.reset();
        if (!(daemon = startDaemon()))
            return rep;
    }
    spans.setActive(false);

    std::thread server([&daemon] { daemon->serve(); });

    service::ServiceClient client;
    const bool connected = client.connect(dopts.socketPath, err);
    rep.check(connected, "client connect: " + err);

    // Closed loop: one request in flight, the next sent on its reply.
    // Requests are counted in windows of kWindowRequests; each metric
    // is the median complete window's.
    Random rng(o.seed);
    std::vector<Point> seen;
    std::vector<std::string> records;
    std::set<std::string> keys;
    std::vector<double> traced_hit_us, all_hit_us, fresh_ipc;
    std::vector<Window> windows(1);
    std::uint64_t requests = 0, fresh_slot = 0;
    auto t_window = Clock::now();
    double ref_s = 0;   // HostRef time in the current window
    const auto deadline =
        t_window + std::chrono::duration<double>(o.seconds);
    while (connected &&
           (Clock::now() < deadline || all_hit_us.empty() ||
            (o.trace && traced_hit_us.empty()))) {
        if (windows.back().requests == kWindowRequests) {
            windows.back().wall = secondsSince(t_window) - ref_s;
            windows.emplace_back();
            t_window = Clock::now();
            ref_s = 0;
        }
        Window &win = windows.back();
        if (win.requests % kRefEvery == 0) {
            const auto t_ref = Clock::now();
            win.factors.push_back(host.factor());
            ref_s += secondsSince(t_ref);
        }
        if (requests % kFreshEvery == 0)
            fresh_slot = rng.below(kFreshEvery);
        const bool fresh =
            seen.empty() || requests % kFreshEvery == fresh_slot;
        if (fresh) {
            Point p;
            bool unseen = false;
            for (unsigned t = 0; t < kFreshTries && !unseen; ++t) {
                p = drawPoint(rng);
                unseen = keys.insert(simPointKey(p.workload, p.scale,
                                                 p.config)).second;
            }
            if (!rep.check(unseen, "no fresh point left after " +
                                       std::to_string(seen.size())))
                break;
            seen.push_back(std::move(p));
        }
        const std::size_t idx =
            fresh ? seen.size() - 1 : rng.below(seen.size());
        const bool traced = o.trace && requests % 2 == 1;
        std::vector<SimResult> out;
        service::ServiceClient::SweepSummary summary;
        bool ok = false;
        spans.setActive(traced);
        const double rtt = timed(spans, "service.sweep", [&] {
            ok = client.sweep({seen[idx]}, out, summary, err);
        });
        spans.setActive(false);
        ++requests;
        ++win.requests;
        if (!rep.check(ok && out.size() == 1, "request: " + err)) {
            if (!client.connected())
                break;
            if (fresh)
                records.emplace_back();
            continue;
        }
        const SimResult &res = out[0];
        const char *want = fresh ? "computed" : "store";
        rep.check(res.cacheHit == want,
                  seen[idx].config.name + ": provenance " + res.cacheHit +
                      ", expected " + want);
        std::string record = service::normalizedRecordText(res);
        if (fresh) {
            records.push_back(std::move(record));
            win.missMs.push_back(rtt * 1e3);
            win.missInsts += res.retired;
            win.missS += rtt;
            if (fresh_ipc.size() < kIpcPoints)
                fresh_ipc.push_back(res.ipc());
        } else {
            rep.check(record == records[idx],
                      seen[idx].config.name +
                          ": store-served record differs from the "
                          "computed one");
            if (traced) {
                traced_hit_us.push_back(rtt * 1e6);
            } else {
                win.hitUs.push_back(rtt * 1e6);
                all_hit_us.push_back(rtt * 1e6);
            }
            win.hitS += rtt;
        }
        win.answered += res.retired;
    }
    windows.back().wall = secondsSince(t_window) - ref_s;
    // A trailing partial window counts only when it is the only one.
    if (windows.size() > 1 && windows.back().requests < kWindowRequests)
        windows.pop_back();

    std::vector<double> hit_p50, hit_p99, miss_p50, req_rate, est_rate,
        sim_rate;
    std::size_t fewest_hits = ~std::size_t(0);
    double hit_s = 0, miss_s = 0, loop_s = 0;
    for (const Window &w : windows) {
        hit_s += w.hitS;
        miss_s += w.missS;
        loop_s += w.wall;
        // Normalized times are measured ones times f; rates divide by f.
        const double f = median(w.factors);
        hit_p50.push_back(median(w.hitUs) * f);
        hit_p99.push_back(quantile(w.hitUs, 0.99) * f);
        miss_p50.push_back(median(w.missMs) * f);
        req_rate.push_back(static_cast<double>(w.requests) / (w.wall * f));
        est_rate.push_back(static_cast<double>(w.answered) / (w.wall * f));
        if (w.missS > 0) {
            sim_rate.push_back(static_cast<double>(w.missInsts) /
                               (w.missS * f));
        }
        fewest_hits = std::min(fewest_hits, w.hitUs.size());
    }
    rep.set("sim_insts_per_s", median(sim_rate));
    rep.set("ipc_geomean", geomean(fresh_ipc));
    rep.set("est_insts_per_s", median(est_rate));
    // Every answer is a full detailed run (or its stored record).
    rep.set("sample_ipc_acc_pct", 100.0);
    rep.set("hit_p50_us", median(hit_p50));
    rep.set("hit_p99_us", median(hit_p99));
    rep.set("miss_p50_ms", median(miss_p50));
    rep.set("req_per_s", median(req_rate));
    rep.notes.push_back(
        std::to_string(requests) + " requests, " +
        std::to_string(seen.size()) + " fresh points computed, " +
        std::to_string(traced_hit_us.size()) + " traced store hits");
    rep.notes.push_back(
        "metrics from the median of " + std::to_string(windows.size()) +
        " windows of up to " + std::to_string(kWindowRequests) +
        " requests; fewest untraced store hits in a window: " +
        std::to_string(fewest_hits));
    char share[160];
    std::snprintf(share, sizeof(share),
                  "share of loop wall time: store hits %.1f%%, fresh points "
                  "%.1f%%, client between requests %.1f%%",
                  100 * hit_s / loop_s, 100 * miss_s / loop_s,
                  100 * (1 - (hit_s + miss_s) / loop_s));
    rep.notes.push_back(share);

    // Daemon counters from its stats frame.
    std::string payload;
    if (rep.check(connected && client.serverStats(payload, err),
                  "stats frame: " + err)) {
        const obs::JsonValue doc = obs::JsonValue::parse(payload);
        rep.set("service.store_hits", statsField(doc, "service",
                                                 "storeHits"));
        rep.set("service.computed", statsField(doc, "service",
                                               "computed"));
        rep.set("service.coalesced", statsField(doc, "service",
                                                "coalesced"));
        rep.set("service.store_puts", statsField(doc, "store", "puts"));
        rep.set("service.store_log_bytes",
                statsField(doc, "store", "logBytes"));
    }

    // Direct probes of the hit path's parts, on the same keys.
    std::vector<double> get_us, codec_us;
    if (service::ResultStore *store = daemon->store();
        store && !seen.empty()) {
        Spans::Scope scope(spans, "service.store_get");
        const double factor = host.factor();
        std::uint64_t bad = 0;
        for (unsigned i = 0; i < kHitBatch; ++i) {
            const std::size_t idx = i % seen.size();
            const Point &p = seen[idx];
            const std::string key =
                simPointKey(p.workload, p.scale, p.config);
            std::string value;
            const auto t0 = Clock::now();
            const bool ok = store->get(key, value);
            get_us.push_back(secondsSince(t0) * 1e6 * factor);
            if (!ok || value != records[idx])
                ++bad;
        }
        rep.check(bad == 0, std::to_string(bad) +
                                " direct store reads returned a wrong "
                                "record");
    }
    if (!records.empty()) {
        Spans::Scope scope(spans, "service.codec");
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.beginObject();
        w.field("type", "result");
        w.field("id", std::uint64_t(1));
        w.field("index", std::uint64_t(0));
        w.field("cacheHit", "store");
        w.field("record", records.front());
        w.endObject();
        const std::string frame_payload = os.str();
        const double factor = host.factor();
        std::uint64_t bad = 0;
        for (unsigned i = 0; i < kCodecProbes; ++i) {
            std::string decoded;
            std::size_t consumed = 0;
            const auto t0 = Clock::now();
            const std::string frame = service::encodeFrame(frame_payload);
            const auto st =
                service::decodeFrame(frame, decoded, consumed);
            codec_us.push_back(secondsSince(t0) * 1e6 * factor);
            if (st != service::FrameStatus::Ok || decoded != frame_payload)
                ++bad;
        }
        rep.check(bad == 0, "frame codec round trip failed");
    }
    rep.set("service.store_get_us", median(get_us));
    rep.set("service.codec_us", median(codec_us));
    rep.set("service.dispatch_us",
            median(hit_p50) - median(get_us) - median(codec_us));
    if (o.trace) {
        // Traced and untraced requests alternate, so they share the
        // host's state: compare whole-run medians.
        rep.set("obs.trace_overhead_frac",
                median(traced_hit_us) / median(all_hit_us) - 1.0);
    }

    client.close();
    daemon->requestShutdown();
    server.join();
    daemon.reset();

    spans.setActive(o.trace);
    for (unsigned r = 0; r < kSetupReps; ++r)
        startDaemon();
    spans.setActive(false);
    rep.set("setup_s", median(setup));
    rep.set("workloads.build_s", median(builds));
    pin.reset();
    // Before the check below, whose pool holds several machines at once.
    rep.set("peak_rss_mb", peakRssMb());

    // Every answer must equal the in-process SimRunner result.
    std::vector<double> run_s;
    {
        Spans::Scope scope(spans, "sim.reference");
        SimRunner runner;
        std::vector<std::shared_future<SimResult>> futs;
        for (const Point &p : seen)
            futs.push_back(runner.submit(p.workload, p.config, p.scale));
        for (std::size_t i = 0; i < seen.size(); ++i) {
            SimResult r = futs[i].get();
            r.config = seen[i].config.name;
            run_s.push_back(r.hostSeconds);
            rep.check(service::normalizedRecordText(r) == records[i],
                      seen[i].config.name + " (" + seen[i].workload +
                          "): service record differs from the "
                          "in-process result");
        }
    }
    rep.set("sim.run_s", median(run_s));

    // Digest over the first kIpcPoints fresh records in request order:
    // how many points a run reaches depends on the host's speed.
    std::vector<std::size_t> order(std::min(seen.size(), kIpcPoints));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    digest::Fnv64 h;
    for (std::size_t i : order)
        h.update(records[i]);
    rep.digest = digest::hex64(h.value());
    return rep;
}

} // namespace tcbench
