#include "sim/result_io.hh"

#include <memory>

#include "obs/json.hh"

namespace tcfill
{

namespace
{

bool
timelineFromJson(const obs::JsonValue &v, SimResult &out,
                 std::string &err)
{
    auto data = std::make_shared<obs::TimelineData>();
    obs::ObjectReader t(v, "result.timeline", err);
    std::string schema;
    if (t.string("schema", schema) &&
        schema != obs::TimelineData::schema())
        return t.error("unexpected schema '" + schema + "'");
    t.integer("interval", data->interval);
    t.integer("phases", data->phases);
    if (const obs::JsonValue *counters = t.member("counters")) {
        if (!counters->isArray())
            return t.error("'counters' is not an array");
        for (const obs::JsonValue &c : counters->arr) {
            if (!c.isString())
                return t.error("counter name is not a string");
            data->counters.push_back(c.str);
        }
    }
    if (const obs::JsonValue *ivs = t.member("intervals")) {
        if (!ivs->isArray())
            return t.error("'intervals' is not an array");
        for (const obs::JsonValue &e : ivs->arr) {
            obs::TimelineInterval iv;
            obs::ObjectReader r(e, "result.timeline.intervals", err);
            r.integer("startInst", iv.startInst);
            r.integer("insts", iv.insts);
            r.integer("startCycle", iv.startCycle);
            r.integer("cycles", iv.cycles);
            r.skip("ipc");  // derived from insts/cycles
            // Signed (-1 = untagged): route around the unsigned
            // integer() accessor.
            double phase = -1.0;
            r.real("phase", phase);
            iv.phase = static_cast<int>(phase);
            // Present exactly when the producing run had a policy
            // mask probe attached; its presence is the maskTracked
            // flag's serialized form.
            if (const obs::JsonValue *mask = r.optional("passMask")) {
                if (!mask->isNumber())
                    return r.error("'passMask' is not a number");
                iv.passMask = static_cast<int>(mask->number);
                data->maskTracked = true;
            }
            if (const obs::JsonValue *deltas = r.member("deltas")) {
                if (!deltas->isArray())
                    return r.error("'deltas' is not an array");
                for (const obs::JsonValue &d : deltas->arr) {
                    if (!d.isNumber())
                        return r.error("delta is not a number");
                    iv.deltas.push_back(d.u64());
                }
            }
            if (!r.finish())
                return false;
            data->intervals.push_back(std::move(iv));
        }
    }
    if (!t.finish())
        return false;
    out.timeline = std::move(data);
    return true;
}

bool
policyFromJson(const obs::JsonValue &v, SimResult &out,
               std::string &err)
{
    auto pol = std::make_shared<PolicySummary>();
    obs::ObjectReader p(v, "result.policy", err);
    p.string("kind", pol->kind);
    p.integer("finalMask", pol->finalMask);
    p.integer("windows", pol->windows);
    p.integer("switches", pol->switches);
    p.integer("phasesSeen", pol->phasesSeen);
    p.integer("movesMarked", pol->movesMarked);
    p.integer("reassociations", pol->reassociations);
    p.integer("scaledAdds", pol->scaledAdds);
    p.integer("deadElided", pol->deadElided);
    if (const obs::JsonValue *phases = p.member("phases")) {
        if (!phases->isArray())
            return p.error("'phases' is not an array");
        for (const obs::JsonValue &e : phases->arr) {
            PolicyPhaseStat ps;
            obs::ObjectReader r(e, "result.policy.phases", err);
            // Signed (-1 = untracked aggregate).
            double phase = -1.0;
            r.real("phase", phase);
            ps.phase = static_cast<int>(phase);
            r.integer("mask", ps.mask);
            r.integer("windows", ps.windows);
            r.integer("insts", ps.insts);
            r.integer("cycles", ps.cycles);
            r.skip("ipc");  // derived from insts/cycles
            if (!r.finish())
                return false;
            pol->phases.push_back(ps);
        }
    }
    if (!p.finish())
        return false;
    out.policy = std::move(pol);
    return true;
}

} // namespace

std::string
resultRecordText(const SimResult &r)
{
    std::string text;
    obs::JsonWriter w(text);
    r.toJson(w, /*include_host=*/false);
    // Callers keep records (stores, caches, benchmarks): drop the
    // slack the string grew while the writer appended.
    text.shrink_to_fit();
    return text;
}

bool
resultFromJson(const obs::JsonValue &v, SimResult &out,
               std::string &err)
{
    out = SimResult{};
    obs::ObjectReader r(v, "result", err);
    r.string("config", out.config);
    r.string("workload", out.workload);
    r.string("mode", out.mode);
    r.integer("maxInsts", out.maxInsts);
    r.string("cacheHit", out.cacheHit);
    r.string("sourceDigest", out.sourceDigest);
    r.integer("retired", out.retired);
    r.integer("cycles", out.cycles);
    r.skip("ipc");  // derived
    r.integer("tcHits", out.tcHits);
    r.integer("tcMisses", out.tcMisses);
    r.skip("tcHitRate");  // derived
    r.real("bpredAccuracy", out.bpredAccuracy);
    r.integer("mispredicts", out.mispredicts);
    r.integer("inactiveRescues", out.inactiveRescues);
    r.integer("mispredictStallCycles", out.mispredictStallCycles);
    r.integer("segmentsBuilt", out.segmentsBuilt);
    r.real("avgSegmentLength", out.avgSegmentLength);
    r.integer("dynMoves", out.dynMoves);
    r.integer("dynReassoc", out.dynReassoc);
    r.integer("dynScaled", out.dynScaled);
    r.integer("dynMoveIdioms", out.dynMoveIdioms);
    r.integer("dynElided", out.dynElided);
    r.integer("bypassDelayed", out.bypassDelayed);
    // The frac* family is derived from the counts above.
    r.skip("fracMoves");
    r.skip("fracReassoc");
    r.skip("fracScaled");
    r.skip("fracTransformed");
    r.skip("fracMoveIdioms");
    r.skip("fracElided");
    r.skip("fracBypassDelayed");
    if (const obs::JsonValue *tl = r.optional("timeline")) {
        if (!timelineFromJson(*tl, out, err))
            return false;
    }
    if (const obs::JsonValue *pol = r.optional("policy")) {
        if (!policyFromJson(*pol, out, err))
            return false;
    }
    // A full (non-record) result object may carry a wall-clock host
    // section; records never do. Accept and drop it.
    r.optional("host");
    return r.finish();
}

bool
resultFromRecordText(std::string_view text, SimResult &out,
                     std::string &err)
{
    auto v = obs::JsonValue::tryParse(text);
    if (!v) {
        err = "malformed result record JSON";
        return false;
    }
    return resultFromJson(*v, out, err);
}

} // namespace tcfill
