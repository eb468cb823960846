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
errorText(const obs::JsonValue &v)
{
    const obs::JsonValue *msg = v.find("message");
    return msg && msg->isString() ? msg->str : "server error";
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
    auto v = obs::JsonValue::tryParse(reply);
    const obs::JsonValue *schema = v ? v->find("schema") : nullptr;
    if (!schema || !schema->isString() || schema->str != kSvcSchema) {
        const obs::JsonValue *type = v ? v->find("type") : nullptr;
        err = type && type->isString() && type->str == "error"
            ? errorText(*v)
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
    auto v = obs::JsonValue::tryParse(reply);
    const obs::JsonValue *type = v ? v->find("type") : nullptr;
    if (!type || !type->isString() || type->str != "pong") {
        err = v ? errorText(*v) : "malformed pong";
        return false;
    }
    return true;
}

bool
ServiceClient::serverStats(std::string &payload, std::string &err)
{
    if (!request(typedHeader("stats"), payload, err))
        return false;
    auto v = obs::JsonValue::tryParse(payload);
    const obs::JsonValue *type = v ? v->find("type") : nullptr;
    if (!type || !type->isString() || type->str != "stats") {
        err = v ? errorText(*v) : "malformed stats reply";
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
    auto v = obs::JsonValue::tryParse(reply);
    const obs::JsonValue *type = v ? v->find("type") : nullptr;
    if (!type || !type->isString() || type->str != "ok") {
        err = v ? errorText(*v) : "malformed shutdown reply";
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
    for (;;) {
        std::string_view replyHeader, body;
        if (!readMessage(replyHeader, body, err))
            return false;
        auto v = obs::JsonValue::tryParse(replyHeader);
        if (!v || !v->isObject()) {
            err = "malformed server frame";
            return false;
        }
        const obs::JsonValue *type = v->find("type");
        std::string t =
            type && type->isString() ? type->str : "";
        if (t == "error") {
            err = errorText(*v);
            return false;
        }
        if (t == "result" || (t == "miss" && missed)) {
            const obs::JsonValue *idx = v->find("index");
            if (!idx || !idx->isNumber()) {
                err = "malformed " + t + " frame";
                return false;
            }
            const std::uint64_t k = idx->u64();
            if (k >= slots.size() || answered[k]) {
                err = t + " index out of range or repeated";
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
            const obs::JsonValue *hit = v->find("cacheHit");
            res.cacheHit = hit && hit->isString() ? hit->str
                                                  : "computed";
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
                const obs::JsonValue *m = nullptr;
                if ((m = v->find("done")) && m->isNumber())
                    p.done += m->u64();
                if ((m = v->find("storeHits")) && m->isNumber())
                    p.cacheHits += m->u64();
                if ((m = v->find("memoryHits")) && m->isNumber())
                    p.cacheHits += m->u64();
                if ((m = v->find("computed")) && m->isNumber())
                    p.liveRuns += m->u64();
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
            const obs::JsonValue *m = nullptr;
            if ((m = v->find("points")) && m->isNumber())
                done.points = m->u64();
            if ((m = v->find("storeHits")) && m->isNumber())
                done.storeHits = m->u64();
            if ((m = v->find("memoryHits")) && m->isNumber())
                done.memoryHits = m->u64();
            if ((m = v->find("computed")) && m->isNumber())
                done.computed = m->u64();
            return true;
        }
        err = "unexpected server frame '" + t + "'";
        return false;
    }
}

} // namespace tcfill::service
