#include "service/client.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <numeric>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/json.hh"
#include "service/protocol.hh"
#include "sim/config_io.hh"
#include "sim/result_io.hh"
#include "sim/runner.hh"

namespace tcfill::service
{

namespace
{

std::string
typedHeader(const char *type)
{
    std::string header;
    obs::JsonWriter w(header);
    w.beginObject();
    w.field("type", type);
    w.endObject();
    return header;
}

/** The "message" of an error frame, or a generic fallback. */
std::string
errorText(obs::JsonNode v)
{
    const obs::JsonNode msg = v.find("message");
    return msg.isString() ? std::string(msg.str()) : "server error";
}

/**
 * Scan the reply header @p text into @p doc; its "type" string, or
 * empty when the header is malformed or has none.
 */
std::string_view
replyType(obs::JsonDocument &doc, std::string_view text)
{
    return doc.parse(text) ? doc.root().find("type").str()
                           : std::string_view();
}

} // namespace

bool
ServiceClient::connect(const std::string &socketPath, std::string &err)
{
    close();
    sockaddr_un addr{};
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        err = "socket path '" + socketPath + "' is too long";
        return false;
    }
    std::signal(SIGPIPE, SIG_IGN);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        err = "socket failed: " + std::string(std::strerror(errno));
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        err = "cannot connect to '" + socketPath + "': " +
            std::string(std::strerror(errno));
        close();
        return false;
    }

    reader_.emplace(fd_);

    std::string hello;
    {
        obs::JsonWriter w(hello);
        w.beginObject();
        w.field("type", "hello");
        w.field("schema", kSvcSchema);
        w.endObject();
    }
    std::string reply;
    if (!request(hello, reply, err)) {
        close();
        return false;
    }
    obs::JsonDocument doc;
    const std::string_view type = replyType(doc, reply);
    if (doc.root().find("schema").str() != kSvcSchema) {
        err = type == "error"
            ? errorText(doc.root())
            : "server does not speak " + std::string(kSvcSchema);
        close();
        return false;
    }
    return true;
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    reader_.reset();
}

bool
ServiceClient::request(std::string_view header, std::string &reply,
                       std::string &err)
{
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    std::string frame;
    appendMessage(frame, header);
    if (!writeAll(fd_, frame)) {
        err = "cannot write to server";
        return false;
    }
    std::string_view replyHeader, body;
    if (!readMessage(replyHeader, body, err))
        return false;
    reply.assign(replyHeader.data(), replyHeader.size());
    return true;
}

bool
ServiceClient::readMessage(std::string_view &header,
                           std::string_view &body, std::string &err)
{
    std::string_view payload;
    WireStatus st = reader_->next(payload);
    if (st != WireStatus::Ok) {
        err = std::string("server connection ") + wireStatusName(st);
        return false;
    }
    if (!splitMessage(payload, header, body)) {
        err = "malformed server frame";
        return false;
    }
    return true;
}

bool
ServiceClient::ping(std::string &err)
{
    std::string reply;
    if (!request(typedHeader("ping"), reply, err))
        return false;
    obs::JsonDocument doc;
    if (replyType(doc, reply) != "pong") {
        err = doc.root() ? errorText(doc.root()) : "malformed pong";
        return false;
    }
    return true;
}

bool
ServiceClient::serverStats(std::string &payload, std::string &err)
{
    if (!request(typedHeader("stats"), payload, err))
        return false;
    obs::JsonDocument doc;
    if (replyType(doc, payload) != "stats") {
        err = doc.root() ? errorText(doc.root()) : "malformed stats reply";
        return false;
    }
    return true;
}

bool
ServiceClient::shutdownServer(std::string &err)
{
    std::string reply;
    if (!request(typedHeader("shutdown"), reply, err))
        return false;
    obs::JsonDocument doc;
    if (replyType(doc, reply) != "ok") {
        err = doc.root() ? errorText(doc.root()) : "malformed shutdown reply";
        return false;
    }
    return true;
}

bool
ServiceClient::sweep(const std::vector<Point> &points,
                     std::vector<SimResult> &out, SweepSummary &summary,
                     std::string &err, obs::ProgressFn progress)
{
    out.clear();
    summary = SweepSummary{};
    if (fd_ < 0) {
        err = "not connected";
        return false;
    }
    if (points.empty()) {
        err = "sweep has no points";
        return false;
    }
    out.resize(points.size());

    // Keys first: the daemon answers every stored point from its
    // store, and no config is built for it on either side.
    std::string header;
    {
        obs::JsonWriter w(header);
        w.beginObject();
        w.field("type", "lookup");
        w.field("id", nextId_++);
        w.field("progress", static_cast<bool>(progress));
        w.beginArray("keys");
        for (const Point &p : points)
            w.value(simPointKey(p.workload, p.scale, p.config));
        w.endArray();
        w.endObject();
    }
    std::vector<std::size_t> slots(points.size());
    std::iota(slots.begin(), slots.end(), std::size_t{0});
    std::vector<std::size_t> missed;
    SweepSummary looked;
    if (!exchange(header, points, slots, out, &missed, SweepSummary{},
                  looked, progress, err))
        return false;
    summary.storeHits = looked.storeHits;
    summary.points = points.size() - missed.size();
    if (missed.empty())
        return true;

    header.clear();
    {
        obs::JsonWriter w(header);
        w.beginObject();
        w.field("type", "sweep");
        w.field("id", nextId_++);
        w.field("progress", static_cast<bool>(progress));
        w.beginArray("points");
        for (std::size_t i : missed) {
            const Point &p = points[i];
            w.beginObject();
            w.field("workload", p.workload);
            w.field("scale", p.scale);
            w.key("config");
            configToJson(w, p.config);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    SweepSummary swept;
    if (!exchange(header, points, missed, out, nullptr, summary, swept,
                  progress, err))
        return false;
    summary.points += swept.points;
    summary.storeHits += swept.storeHits;
    summary.memoryHits = swept.memoryHits;
    summary.computed = swept.computed;
    return true;
}

bool
ServiceClient::exchange(std::string_view header,
                        const std::vector<Point> &points,
                        const std::vector<std::size_t> &slots,
                        std::vector<SimResult> &out,
                        std::vector<std::size_t> *missed,
                        const SweepSummary &before, SweepSummary &done,
                        const obs::ProgressFn &progress, std::string &err)
{
    std::string frame;
    appendMessage(frame, header);
    if (!writeAll(fd_, frame)) {
        err = "cannot write to server";
        return false;
    }

    std::vector<bool> answered(slots.size(), false);
    std::size_t unanswered = slots.size();
    obs::JsonDocument doc;      // each reply header in turn
    for (;;) {
        std::string_view replyHeader, body;
        if (!readMessage(replyHeader, body, err))
            return false;
        const std::string_view t = replyType(doc, replyHeader);
        const obs::JsonNode v = doc.root();
        if (!v.isObject()) {
            err = "malformed server frame";
            return false;
        }
        if (t == "error") {
            err = errorText(v);
            return false;
        }
        if (t == "result" || (t == "miss" && missed)) {
            const obs::JsonNode idx = v.find("index");
            if (!idx.isNumber()) {
                err = "malformed " + std::string(t) + " frame";
                return false;
            }
            const std::uint64_t k = idx.u64();
            if (k >= slots.size() || answered[k]) {
                err = std::string(t) + " index out of range or repeated";
                return false;
            }
            answered[k] = true;
            --unanswered;
            const std::size_t i = slots[k];
            if (t == "miss") {
                missed->push_back(i);
                continue;
            }
            SimResult &res = out[i];
            if (!resultFromRecordText(body, res, err))
                return false;
            // Provenance and the cosmetic config label are
            // client-side facts: the record itself is normalized.
            const obs::JsonNode hit = v.find("cacheHit");
            res.cacheHit = hit.isString() ? hit.str() : "computed";
            res.config = points[i].config.name;
            continue;
        }
        if (t == "progress") {
            if (progress) {
                obs::SweepProgress p;
                p.points = out.size();
                p.done = before.points;
                p.cacheHits = before.storeHits + before.memoryHits;
                p.liveRuns = before.computed;
                p.done += v.find("done").u64();
                p.cacheHits += v.find("storeHits").u64() +
                    v.find("memoryHits").u64();
                p.liveRuns += v.find("computed").u64();
                p.liveDone = p.liveRuns;
                progress(p);
            }
            continue;
        }
        if (t == "done") {
            if (unanswered != 0) {
                err = "server left " + std::to_string(unanswered) +
                    " of " + std::to_string(slots.size()) +
                    " points unanswered";
                return false;
            }
            done.points = v.find("points").u64();
            done.storeHits = v.find("storeHits").u64();
            done.memoryHits = v.find("memoryHits").u64();
            done.computed = v.find("computed").u64();
            return true;
        }
        err = "unexpected server frame '" + std::string(t) + "'";
        return false;
    }
}

} // namespace tcfill::service
