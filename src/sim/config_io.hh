/**
 * @file
 * The SimConfig knob table and the JSON (de)serialization of
 * SimConfig for the tcfill-svc-v3 service protocol.
 *
 * visitKnobs() names every behavior-affecting knob once: its member
 * on the wire and the text in front of its value in configCacheKey().
 * The store key (sim/runner.cc), configToJson() and configFromJson()
 * are visitors over that one table, so they cannot disagree on which
 * knobs exist or in what order. The round-trip invariant — parsing a
 * serialized config reproduces the exact configCacheKey() — is what
 * lets the daemon key its persistent store off configs that crossed
 * the wire (tested per knob in tests/test_service.cc).
 *
 * Parsing is strict but non-fatal: unknown members, missing members,
 * type mismatches and values the model cannot run (SimConfig::check)
 * are reported through the error string, never by aborting — a
 * daemon must survive malformed and hostile requests.
 */

#ifndef TCFILL_SIM_CONFIG_IO_HH
#define TCFILL_SIM_CONFIG_IO_HH

#include <string>

#include "sim/config.hh"

namespace tcfill
{

namespace obs
{
class JsonNode;
class JsonWriter;
} // namespace obs

/**
 * Walk every SimConfig knob in wire and key order, calling on @p v:
 *  - knob(prefix, member, field): a knob; its key slot is @p prefix
 *    then the field's value, its wire member is @p member;
 *  - begin(member) ... end(): a nested wire object (no key text);
 *  - label(member, field): the cosmetic SimConfig::name, wire only;
 *  - fixed(text, values...): key only, @p text then @p values: a
 *    retired knob's old default, or values derived from other knobs,
 *    so keys written before still match.
 * @p cfg is const for the writers and mutable for the reader.
 *
 * Adding a knob takes one line here and one ConfigKeyCoversEveryKnob
 * row. Retiring one turns its line into a fixed() slot holding its
 * old default; the wire then refuses the member as unknown.
 */
template <typename Visitor, typename Config>
void
visitKnobs(Visitor &v, Config &cfg)
{
    v.label("name", cfg.name);
    v.knob("tc=", "useTraceCache", cfg.useTraceCache);
    v.knob(";ii=", "inactiveIssue", cfg.inactiveIssue);
    v.knob(";fw=", "fetchWidth", cfg.fetchWidth);
    v.knob(";fq=", "fetchQueueLines", cfg.fetchQueueLines);
    v.knob(";rw=", "retireWidth", cfg.retireWidth);
    v.knob(";win=", "windowCap", cfg.windowCap);
    v.knob(";ras=", "rasDepth", cfg.rasDepth);
    v.knob(";mi=", "maxInsts", cfg.maxInsts);
    v.knob(";mc=", "maxCycles", cfg.maxCycles);
    // Timeline telemetry never changes timing, but it changes the
    // result document, so it keys the store too.
    v.knob(";ti=", "statsInterval", cfg.statsInterval);
    v.knob(";tp=", "statsPhases", cfg.statsPhases);

    auto &f = cfg.fill;
    v.begin("fill");
    v.knob("|fill=", "latency", f.latency);
    // Trace packing (on) and loop-head alignment (off), both retired.
    v.fixed(",1,0");
    v.knob(",", "restartAtMissTargets", f.restartAtMissTargets);
    v.knob(",", "promoteBranches", f.promoteBranches);
    v.knob(",", "maxInsts", f.maxInsts);
    v.knob(",", "maxCondBranches", f.maxCondBranches);
    auto &o = f.opts;
    v.begin("opts");
    v.knob("|opts=", "markMoves", o.markMoves);
    v.knob("", "reassociate", o.reassociate);
    v.knob("", "scaledAdds", o.scaledAdds);
    v.knob("", "placement", o.placement);
    v.knob("", "deadCodeElim", o.deadCodeElim);
    v.begin("reassoc");
    v.knob(",", "crossBlockOnly", o.reassocOptions.crossBlockOnly);
    v.knob("", "foldMemDisplacement",
           o.reassocOptions.foldMemDisplacement);
    v.end();
    v.end();
    auto &p = f.policy;
    v.begin("policy");
    v.knob("|policy=", "kind", p.kind);
    v.knob(",", "maxPhases", p.maxPhases);
    v.knob(",", "windowInsts", p.windowInsts);
    v.knob(",", "newPhaseDist", p.newPhaseDist);
    v.fixed(",0.02");   // a knob of a retired policy
    v.knob(",", "oracleMap", p.oracleMap);
    v.end();
    v.end();

    v.begin("tcache");
    v.knob("|tcache=", "entries", cfg.tcache.entries);
    v.knob(",", "ways", cfg.tcache.ways);
    // A line's metadata bits follow from the opts (DESIGN.md §7).
    v.fixed(",", o.markMoves, o.scaledAdds, o.placement);
    v.end();

    auto cache = [&v](const char *member, const char *prefix, auto &c) {
        v.begin(member);
        v.knob(prefix, "sizeBytes", c.sizeBytes);
        v.knob(",", "lineBytes", c.lineBytes);
        v.knob(",", "ways", c.ways);
        v.end();
    };
    v.begin("mem");
    cache("l1i", "|mem=", cfg.mem.l1i);
    cache("l1d", ";", cfg.mem.l1d);
    cache("l2", ";", cfg.mem.l2);
    v.knob(";", "l2Latency", cfg.mem.l2Latency);
    v.knob(",", "memLatency", cfg.mem.memLatency);
    v.knob(",", "memBusOccupancy", cfg.mem.memBusOccupancy);
    v.end();

    v.begin("bpred");
    v.knob("|bp=", "pht0Entries", cfg.bpred.pht0Entries);
    v.knob(",", "pht1Entries", cfg.bpred.pht1Entries);
    v.knob(",", "pht2Entries", cfg.bpred.pht2Entries);
    v.knob(",", "historyBits", cfg.bpred.historyBits);
    v.end();

    v.begin("bias");
    v.knob("|bias=", "entries", cfg.bias.entries);
    v.knob(",", "promoteThreshold", cfg.bias.promoteThreshold);
    v.end();

    v.begin("core");
    v.knob("|core=", "numClusters", cfg.core.numClusters);
    v.knob(",", "fusPerCluster", cfg.core.fusPerCluster);
    v.knob(",", "rsEntries", cfg.core.rsEntries);
    v.knob(",", "crossClusterDelay", cfg.core.crossClusterDelay);
    v.fixed(",0");      // the retired second scheduler
    v.end();
}

// Tripwire: visitKnobs() must name every behavior-affecting field, so
// any growth of SimConfig or a nested params struct has to pass
// through it. If one of these fires, you added (or removed) a field:
// give it a line in visitKnobs() (a retired one becomes a fixed()
// slot) and a row in ConfigKeyCoversEveryKnob (tests/test_runner.cc),
// then update the size. The persistent result store and the wire both
// key off the table, so a field it misses would silently alias
// distinct configs on disk. Sizes assume the LP64 Itanium ABI both CI
// and the dev containers use; other ABIs skip the check (the unit
// test still runs).
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(ReassocOptions) == 2,
              "ReassocOptions changed: update visitKnobs()");
static_assert(sizeof(FillOptimizations) == 7,
              "FillOptimizations changed: update visitKnobs()");
static_assert(sizeof(FillPolicyParams) == sizeof(std::string) + 24,
              "FillPolicyParams changed: update visitKnobs()");
static_assert(sizeof(FillUnitConfig) == sizeof(FillPolicyParams) + 32,
              "FillUnitConfig changed: update visitKnobs()");
static_assert(sizeof(TraceCache::Params) == 16,
              "TraceCache::Params changed: update visitKnobs()");
static_assert(sizeof(CacheParams) == sizeof(std::string) + 24,
              "CacheParams changed: update visitKnobs()");
static_assert(sizeof(MemoryHierarchy::Params) ==
                  3 * sizeof(CacheParams) + 24,
              "MemoryHierarchy::Params changed: update visitKnobs()");
static_assert(sizeof(MultiBranchPredictor::Params) == 32,
              "MultiBranchPredictor::Params changed: update visitKnobs()");
static_assert(sizeof(BiasTable::Params) == 16,
              "BiasTable::Params changed: update visitKnobs()");
static_assert(sizeof(ExecCoreParams) == 24,
              "ExecCoreParams changed: update visitKnobs()");
static_assert(sizeof(SimConfig) ==
                  sizeof(std::string) + sizeof(FillPolicyParams) + 368,
              "SimConfig changed: update visitKnobs()");
#endif

/** Emit @p cfg as one JSON object (all knobs, fixed key order). */
void configToJson(obs::JsonWriter &w, const SimConfig &cfg);

/**
 * Read a configToJson() object of a scanned document into @p out (a
 * default SimConfig plus every serialized knob). Returns false with a
 * description in @p err on any unknown / missing / mistyped member or
 * on a config SimConfig::check() refuses; @p out is unspecified then.
 * The member named is the first one the table reaches that is
 * missing, mistyped or (at its object's end) unknown.
 */
bool configFromJson(obs::JsonNode v, SimConfig &out, std::string &err);

} // namespace tcfill

#endif // TCFILL_SIM_CONFIG_IO_HH
