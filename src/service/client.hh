/**
 * @file
 * ServiceClient: the tcfill-svc-v3 client side. Connects to a tcfilld
 * Unix-domain socket, performs the hello schema handshake, and runs
 * batched sweeps in two steps: one lookup names every point by its
 * simPointKey text and the daemon answers the stored ones from its
 * store; then one sweep carries the configs of the points that
 * missed, if any. Results come back as parsed SimResults whose
 * cacheHit records where the daemon found each one (store / memory /
 * computed); each result frame carries the record's own bytes, parsed
 * once. A stored point therefore costs its key and no config. A sweep
 * asks for progress frames only when its caller passes an
 * obs::ProgressFn, so the CLI's throttled console reporter works
 * unchanged against a remote daemon and other callers pay for no
 * progress traffic.
 */

#ifndef TCFILL_SERVICE_CLIENT_HH
#define TCFILL_SERVICE_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/progress.hh"
#include "service/protocol.hh"
#include "sim/config.hh"
#include "sim/result.hh"

namespace tcfill::service
{

class ServiceClient
{
  public:
    /** One requested simulation point. */
    struct Point
    {
        std::string workload;
        unsigned scale = 1;
        SimConfig config;
    };

    /** Provenance totals of one sweep, from the daemon's done frames. */
    struct SweepSummary
    {
        std::uint64_t points = 0;
        std::uint64_t storeHits = 0;
        std::uint64_t memoryHits = 0;
        std::uint64_t computed = 0;
    };

    ServiceClient() = default;
    ~ServiceClient() { close(); }

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** Connect and handshake. False + @p err on failure. */
    bool connect(const std::string &socketPath, std::string &err);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Run one batched sweep: a lookup of every point's key, then a
     * sweep of the points that missed (none when all hit). On success
     * @p out holds one SimResult per point, in order, and @p summary
     * the daemon's provenance totals over both requests. @p progress
     * (optional) is invoked per completed point, with counts over the
     * whole sweep; without it the daemon sends no progress frames.
     */
    bool sweep(const std::vector<Point> &points,
               std::vector<SimResult> &out, SweepSummary &summary,
               std::string &err, obs::ProgressFn progress = nullptr);

    bool ping(std::string &err);

    /** Fetch the daemon's stats frame (raw JSON payload text). */
    bool serverStats(std::string &payload, std::string &err);

    /** Ask the daemon to exit (acknowledged before it does). */
    bool shutdownServer(std::string &err);

  private:
    /** Send one header-only message; @p reply gets the reply header. */
    bool request(std::string_view header, std::string &reply,
                 std::string &err);
    /** Read the next message (views valid until the next read). */
    bool readMessage(std::string_view &header, std::string_view &body,
                     std::string &err);
    /**
     * Send the lookup or sweep @p header whose k-th key or point is
     * points[slots[k]], and read its reply: results fill out[slots[k]],
     * misses go to @p missed (lookups only), progress frames reach
     * @p progress counted on top of @p before, and the done frame's
     * totals land in @p done.
     */
    bool exchange(std::string_view header,
                  const std::vector<Point> &points,
                  const std::vector<std::size_t> &slots,
                  std::vector<SimResult> &out,
                  std::vector<std::size_t> *missed,
                  const SweepSummary &before, SweepSummary &done,
                  const obs::ProgressFn &progress, std::string &err);

    int fd_ = -1;
    std::optional<FrameReader> reader_;
    std::uint64_t nextId_ = 1;
};

} // namespace tcfill::service

#endif // TCFILL_SERVICE_CLIENT_HH
