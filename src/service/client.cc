#include "service/client.hh"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/json.hh"
#include "service/protocol.hh"
#include "sim/config_io.hh"
#include "sim/result_io.hh"

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

    std::uint64_t id = nextId_++;
    std::string header;
    {
        obs::JsonWriter w(header);
        w.beginObject();
        w.field("type", "sweep");
        w.field("id", id);
        w.field("progress", static_cast<bool>(progress));
        w.beginArray("points");
        for (const Point &p : points) {
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
    std::string frame;
    appendMessage(frame, header);
    if (!writeAll(fd_, frame)) {
        err = "cannot write to server";
        return false;
    }

    out.resize(points.size());
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
        if (t == "result") {
            const obs::JsonValue *idx = v->find("index");
            const obs::JsonValue *hit = v->find("cacheHit");
            if (!idx || !idx->isNumber()) {
                err = "malformed result frame";
                return false;
            }
            std::size_t i = static_cast<std::size_t>(idx->u64());
            if (i >= out.size()) {
                err = "result index out of range";
                return false;
            }
            SimResult &res = out[i];
            if (!resultFromRecordText(body, res, err))
                return false;
            // Provenance and the cosmetic config label are
            // client-side facts: the record itself is normalized.
            res.cacheHit = hit && hit->isString() ? hit->str
                                                  : "computed";
            res.config = points[i].config.name;
            continue;
        }
        if (t == "progress") {
            if (progress) {
                obs::SweepProgress p;
                const obs::JsonValue *m = nullptr;
                if ((m = v->find("points")) && m->isNumber())
                    p.points = m->u64();
                if ((m = v->find("done")) && m->isNumber())
                    p.done = m->u64();
                std::uint64_t stored = 0, memory = 0, computed = 0;
                if ((m = v->find("storeHits")) && m->isNumber())
                    stored = m->u64();
                if ((m = v->find("memoryHits")) && m->isNumber())
                    memory = m->u64();
                if ((m = v->find("computed")) && m->isNumber())
                    computed = m->u64();
                p.cacheHits = stored + memory;
                p.liveRuns = computed;
                p.liveDone = computed;
                progress(p);
            }
            continue;
        }
        if (t == "done") {
            const obs::JsonValue *m = nullptr;
            if ((m = v->find("points")) && m->isNumber())
                summary.points = m->u64();
            if ((m = v->find("storeHits")) && m->isNumber())
                summary.storeHits = m->u64();
            if ((m = v->find("memoryHits")) && m->isNumber())
                summary.memoryHits = m->u64();
            if ((m = v->find("computed")) && m->isNumber())
                summary.computed = m->u64();
            return true;
        }
        err = "unexpected server frame '" + t + "'";
        return false;
    }
}

} // namespace tcfill::service
