/**
 * @file
 * ServiceClient: the tcfill-svc-v2 client side. Connects to a tcfilld
 * Unix-domain socket, performs the hello schema handshake, and runs
 * batched sweeps: points go out in one frame, results stream back in
 * request order as parsed SimResults whose cacheHit records where the
 * daemon found each one (store / memory / computed). Each result
 * frame carries the record's own bytes, parsed once. A sweep asks
 * for progress frames only when its caller passes an obs::ProgressFn,
 * so the CLI's throttled console reporter works unchanged against a
 * remote daemon and other callers pay for no progress traffic.
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

    /** Provenance totals of one sweep, from the daemon's done frame. */
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
     * Run one batched sweep. On success @p out holds one SimResult
     * per point, in order, and @p summary the daemon's provenance
     * totals. @p progress (optional) is invoked per completed point;
     * without it the daemon sends no progress frames.
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

    int fd_ = -1;
    std::optional<FrameReader> reader_;
    std::uint64_t nextId_ = 1;
};

} // namespace tcfill::service

#endif // TCFILL_SERVICE_CLIENT_HH
