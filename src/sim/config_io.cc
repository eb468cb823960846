#include "sim/config_io.hh"

#include <cstdint>

#include "obs/json.hh"

namespace tcfill
{

namespace
{

using Scope = obs::ObjectReader;

void
cacheToJson(obs::JsonWriter &w, const char *key, const CacheParams &c)
{
    // CacheParams::name is fixed by the hierarchy slot (and excluded
    // from configCacheKey), so it does not cross the wire.
    w.beginObject(key);
    w.field("sizeBytes", static_cast<std::uint64_t>(c.sizeBytes));
    w.field("lineBytes", static_cast<std::uint64_t>(c.lineBytes));
    w.field("ways", static_cast<std::uint64_t>(c.ways));
    w.endObject();
}

bool
cacheFromJson(obs::JsonNode v, const char *path, CacheParams &out,
              std::string &err)
{
    Scope s(v, path, err);
    s.integer("sizeBytes", out.sizeBytes);
    s.integer("lineBytes", out.lineBytes);
    s.integer("ways", out.ways);
    return s.finish();
}

} // namespace

void
configToJson(obs::JsonWriter &w, const SimConfig &cfg)
{
    w.beginObject();
    w.field("name", cfg.name);
    w.field("useTraceCache", cfg.useTraceCache);
    w.field("inactiveIssue", cfg.inactiveIssue);
    w.field("fetchWidth", cfg.fetchWidth);
    w.field("fetchQueueLines", cfg.fetchQueueLines);
    w.field("retireWidth", cfg.retireWidth);
    w.field("windowCap", cfg.windowCap);
    w.field("rasDepth", cfg.rasDepth);
    w.field("maxInsts", cfg.maxInsts);
    w.field("maxCycles", cfg.maxCycles);
    w.field("statsInterval", cfg.statsInterval);
    w.field("statsPhases", cfg.statsPhases);

    const FillUnitConfig &f = cfg.fill;
    w.beginObject("fill");
    w.field("latency", f.latency);
    w.field("packTraces", f.packTraces);
    w.field("alignLoopHeads", f.alignLoopHeads);
    w.field("restartAtMissTargets", f.restartAtMissTargets);
    w.field("promoteBranches", f.promoteBranches);
    w.field("maxInsts", f.maxInsts);
    w.field("maxCondBranches", f.maxCondBranches);
    w.beginObject("opts");
    w.field("markMoves", f.opts.markMoves);
    w.field("reassociate", f.opts.reassociate);
    w.field("scaledAdds", f.opts.scaledAdds);
    w.field("placement", f.opts.placement);
    w.field("deadCodeElim", f.opts.deadCodeElim);
    w.beginObject("reassoc");
    w.field("crossBlockOnly", f.opts.reassocOptions.crossBlockOnly);
    w.field("foldMemDisplacement",
            f.opts.reassocOptions.foldMemDisplacement);
    w.endObject();
    w.endObject();
    w.beginObject("policy");
    w.field("kind", fillPolicyKindName(f.policy.kind));
    w.field("maxPhases", f.policy.maxPhases);
    w.field("windowInsts", f.policy.windowInsts);
    w.field("newPhaseDist", f.policy.newPhaseDist);
    w.field("oracleMap", f.policy.oracleMap);
    w.endObject();
    w.endObject();

    w.beginObject("tcache");
    w.field("entries", static_cast<std::uint64_t>(cfg.tcache.entries));
    w.field("ways", static_cast<std::uint64_t>(cfg.tcache.ways));
    w.field("moveBits", cfg.tcache.moveBits);
    w.field("scaledBits", cfg.tcache.scaledBits);
    w.field("placementBits", cfg.tcache.placementBits);
    w.endObject();

    w.beginObject("mem");
    cacheToJson(w, "l1i", cfg.mem.l1i);
    cacheToJson(w, "l1d", cfg.mem.l1d);
    cacheToJson(w, "l2", cfg.mem.l2);
    w.field("l2Latency", cfg.mem.l2Latency);
    w.field("memLatency", cfg.mem.memLatency);
    w.field("memBusOccupancy", cfg.mem.memBusOccupancy);
    w.endObject();

    w.beginObject("bpred");
    w.field("pht0Entries",
            static_cast<std::uint64_t>(cfg.bpred.pht0Entries));
    w.field("pht1Entries",
            static_cast<std::uint64_t>(cfg.bpred.pht1Entries));
    w.field("pht2Entries",
            static_cast<std::uint64_t>(cfg.bpred.pht2Entries));
    w.field("historyBits", cfg.bpred.historyBits);
    w.endObject();

    w.beginObject("bias");
    w.field("entries", static_cast<std::uint64_t>(cfg.bias.entries));
    w.field("promoteThreshold", cfg.bias.promoteThreshold);
    w.endObject();

    w.beginObject("core");
    w.field("numClusters", cfg.core.numClusters);
    w.field("fusPerCluster", cfg.core.fusPerCluster);
    w.field("rsEntries", cfg.core.rsEntries);
    w.field("crossClusterDelay", cfg.core.crossClusterDelay);
    w.field("scheduler",
            cfg.core.scheduler == SchedulerKind::Scan ? "scan"
                                                      : "wakeup");
    w.endObject();
    w.endObject();
}

bool
configFromJson(obs::JsonNode v, SimConfig &out, std::string &err)
{
    out = SimConfig{};
    Scope s(v, "config", err);
    s.string("name", out.name);
    s.boolean("useTraceCache", out.useTraceCache);
    s.boolean("inactiveIssue", out.inactiveIssue);
    s.integer("fetchWidth", out.fetchWidth);
    s.integer("fetchQueueLines", out.fetchQueueLines);
    s.integer("retireWidth", out.retireWidth);
    s.integer("windowCap", out.windowCap);
    s.integer("rasDepth", out.rasDepth);
    s.integer("maxInsts", out.maxInsts);
    s.integer("maxCycles", out.maxCycles);
    s.integer("statsInterval", out.statsInterval);
    s.integer("statsPhases", out.statsPhases);

    if (const obs::JsonNode fill = s.member("fill")) {
        FillUnitConfig &f = out.fill;
        Scope fs(fill, "config.fill", err);
        fs.integer("latency", f.latency);
        fs.boolean("packTraces", f.packTraces);
        fs.boolean("alignLoopHeads", f.alignLoopHeads);
        fs.boolean("restartAtMissTargets", f.restartAtMissTargets);
        fs.boolean("promoteBranches", f.promoteBranches);
        fs.integer("maxInsts", f.maxInsts);
        fs.integer("maxCondBranches", f.maxCondBranches);
        if (const obs::JsonNode opts = fs.member("opts")) {
            Scope os(opts, "config.fill.opts", err);
            os.boolean("markMoves", f.opts.markMoves);
            os.boolean("reassociate", f.opts.reassociate);
            os.boolean("scaledAdds", f.opts.scaledAdds);
            os.boolean("placement", f.opts.placement);
            os.boolean("deadCodeElim", f.opts.deadCodeElim);
            if (const obs::JsonNode re = os.member("reassoc")) {
                Scope rs(re, "config.fill.opts.reassoc", err);
                rs.boolean("crossBlockOnly",
                           f.opts.reassocOptions.crossBlockOnly);
                rs.boolean("foldMemDisplacement",
                           f.opts.reassocOptions.foldMemDisplacement);
                if (!rs.finish())
                    return false;
            }
            if (!os.finish())
                return false;
        }
        if (const obs::JsonNode pol = fs.member("policy")) {
            Scope ps(pol, "config.fill.policy", err);
            std::string kind;
            if (ps.string("kind", kind)) {
                bool known = false;
                for (FillPolicyKind k :
                     {FillPolicyKind::Static, FillPolicyKind::Oracle}) {
                    if (kind == fillPolicyKindName(k)) {
                        f.policy.kind = k;
                        known = true;
                        break;
                    }
                }
                if (!known) {
                    err = "config.fill.policy: unknown kind '" + kind +
                        "'";
                    return false;
                }
            }
            ps.integer("maxPhases", f.policy.maxPhases);
            ps.integer("windowInsts", f.policy.windowInsts);
            ps.real("newPhaseDist", f.policy.newPhaseDist);
            ps.string("oracleMap", f.policy.oracleMap);
            if (!ps.finish())
                return false;
        }
        if (!fs.finish())
            return false;
    }

    if (const obs::JsonNode tc = s.member("tcache")) {
        Scope ts(tc, "config.tcache", err);
        ts.integer("entries", out.tcache.entries);
        ts.integer("ways", out.tcache.ways);
        ts.boolean("moveBits", out.tcache.moveBits);
        ts.boolean("scaledBits", out.tcache.scaledBits);
        ts.boolean("placementBits", out.tcache.placementBits);
        if (!ts.finish())
            return false;
    }

    if (const obs::JsonNode mem = s.member("mem")) {
        Scope ms(mem, "config.mem", err);
        if (const obs::JsonNode c = ms.member("l1i")) {
            if (!cacheFromJson(c, "config.mem.l1i", out.mem.l1i, err))
                return false;
        }
        if (const obs::JsonNode c = ms.member("l1d")) {
            if (!cacheFromJson(c, "config.mem.l1d", out.mem.l1d, err))
                return false;
        }
        if (const obs::JsonNode c = ms.member("l2")) {
            if (!cacheFromJson(c, "config.mem.l2", out.mem.l2, err))
                return false;
        }
        ms.integer("l2Latency", out.mem.l2Latency);
        ms.integer("memLatency", out.mem.memLatency);
        ms.integer("memBusOccupancy", out.mem.memBusOccupancy);
        if (!ms.finish())
            return false;
    }

    if (const obs::JsonNode bp = s.member("bpred")) {
        Scope bs(bp, "config.bpred", err);
        bs.integer("pht0Entries", out.bpred.pht0Entries);
        bs.integer("pht1Entries", out.bpred.pht1Entries);
        bs.integer("pht2Entries", out.bpred.pht2Entries);
        bs.integer("historyBits", out.bpred.historyBits);
        if (!bs.finish())
            return false;
    }

    if (const obs::JsonNode bias = s.member("bias")) {
        Scope bs(bias, "config.bias", err);
        bs.integer("entries", out.bias.entries);
        bs.integer("promoteThreshold", out.bias.promoteThreshold);
        if (!bs.finish())
            return false;
    }

    if (const obs::JsonNode core = s.member("core")) {
        Scope cs(core, "config.core", err);
        cs.integer("numClusters", out.core.numClusters);
        cs.integer("fusPerCluster", out.core.fusPerCluster);
        cs.integer("rsEntries", out.core.rsEntries);
        cs.integer("crossClusterDelay", out.core.crossClusterDelay);
        std::string sched;
        if (cs.string("scheduler", sched)) {
            if (sched == "wakeup") {
                out.core.scheduler = SchedulerKind::Wakeup;
            } else if (sched == "scan") {
                out.core.scheduler = SchedulerKind::Scan;
            } else {
                err = "config.core: unknown scheduler '" + sched + "'";
                return false;
            }
        }
        if (!cs.finish())
            return false;
    }

    if (!s.finish())
        return false;
    err = out.check();
    return err.empty();
}

} // namespace tcfill
