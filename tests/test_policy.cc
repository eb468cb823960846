/**
 * @file
 * Fill pass-selection policy tests (DESIGN.md §16): pass-mask helper
 * round trips, decision-window accounting, the static and oracle
 * policies driven through onRetire, oracle map parsing, online
 * phase-tracker labeling, and sim-level contracts — uniform-mask
 * oracle runs bit-identical to the equivalent static configuration
 * across the full 32-combo optimization matrix, and a switching
 * oracle deterministic across thread counts and record/replay.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "fill/passes.hh"
#include "fill/policy.hh"
#include "sim/processor.hh"
#include "sim/runner.hh"
#include "tracefile/replay.hh"
#include "tracefile/trace_io.hh"
#include "workloads/suite.hh"

namespace tcfill
{
namespace
{

constexpr InstSeqNum kTestInsts = 20'000;

// --------------------------------------------------------------------
// Pass-mask helpers
// --------------------------------------------------------------------

TEST(PassMask, OptsRoundTripAllCombos)
{
    for (unsigned m = 0; m <= kPassMaskEvery; ++m) {
        const PassMask mask = static_cast<PassMask>(m);
        const FillOptimizations opts = optsFromPassMask(mask);
        EXPECT_EQ(passMaskFromOpts(opts), mask);
        EXPECT_EQ(parsePassMask(passMaskName(mask)), mask)
            << "name '" << passMaskName(mask) << "'";
        EXPECT_EQ(parsePassMask(std::to_string(m)), mask);
    }
}

TEST(PassMask, NamedConfigurations)
{
    EXPECT_EQ(passMaskFromOpts(FillOptimizations::all()), kPassMaskAll);
    EXPECT_EQ(passMaskFromOpts(FillOptimizations::extended()),
              kPassMaskExtended);
    EXPECT_EQ(passMaskFromOpts(FillOptimizations::none()), kPassMaskNone);
    EXPECT_EQ(passMaskName(kPassMaskAll), "all");
    EXPECT_EQ(passMaskName(kPassMaskExtended), "extended");
    EXPECT_EQ(passMaskName(kPassMaskNone), "none");
    EXPECT_EQ(passMaskName(kPassMarkMoves | kPassPlacement),
              "moves+placement");
    // --opts spells lists with commas; either separator parses.
    EXPECT_EQ(parsePassMask("moves,placement"),
              kPassMarkMoves | kPassPlacement);
    EXPECT_EQ(parsePassMask("moves,reassoc+scaled,dce,placement"),
              kPassMaskExtended);
    PassMask m = kPassMaskNone;
    std::string err;
    EXPECT_FALSE(parsePassMask("moves,bogus", m, err));
    EXPECT_EQ(err, "unknown pass mask token 'bogus' in 'moves,bogus'");
}

TEST(PassMask, OptsFromMaskPreservesReassocBase)
{
    FillOptimizations base;
    base.reassocOptions.crossBlockOnly = false;
    base.reassocOptions.foldMemDisplacement = false;
    const FillOptimizations opts = optsFromPassMask(kPassMaskAll, base);
    EXPECT_FALSE(opts.reassocOptions.crossBlockOnly);
    EXPECT_FALSE(opts.reassocOptions.foldMemDisplacement);
    EXPECT_TRUE(opts.placement);
}

// --------------------------------------------------------------------
// Decision-window accounting
// --------------------------------------------------------------------

/** Oracle parameters replaying @p map over @p window-commit windows. */
FillPolicyParams
oracleParams(const std::string &map, InstSeqNum window)
{
    FillPolicyParams params;
    params.kind = FillPolicyKind::Oracle;
    params.windowInsts = window;
    params.oracleMap = map;
    return params;
}

TEST(WindowedPolicy, SummaryAggregatesWindows)
{
    FillPolicy p(oracleParams("*=all", 50), kPassMaskAll);
    // Two commits per cycle in the first window, one per cycle after.
    // One straight-line block throughout, so every window is phase 0.
    for (unsigned i = 0; i < 150; ++i) {
        EXPECT_EQ(p.windows(), i / 50);
        p.onRetire(0x1000 + i * 4, false, i < 50 ? i / 2 : i - 25);
    }

    PolicySummary sum;
    p.summarize(sum);
    EXPECT_EQ(sum.kind, "oracle");
    EXPECT_EQ(sum.windows, 3u);
    EXPECT_EQ(sum.phasesSeen, 1u);
    ASSERT_EQ(sum.phases.size(), 1u);
    EXPECT_EQ(sum.phases[0].phase, 0);
    EXPECT_EQ(sum.phases[0].mask, kPassMaskAll);
    EXPECT_EQ(sum.phases[0].windows, 3u);
    EXPECT_EQ(sum.phases[0].insts, 150u);
    // Boundary convention: a window owns [start, last commit + 1), so
    // the spans [0,25), [25,75) and [75,125) tile the run.
    EXPECT_EQ(sum.phases[0].cycles, 125u);
}

// --------------------------------------------------------------------
// Static policy
// --------------------------------------------------------------------

TEST(StaticFillPolicy, FixedMaskNoSignals)
{
    FillPolicyParams params;    // kind = Static
    FillPolicy p(params, kPassMaskAll);
    EXPECT_STREQ(p.kind(), "static");
    EXPECT_FALSE(p.observesRetire());
    EXPECT_EQ(p.mask(), kPassMaskAll);
    EXPECT_EQ(*p.maskPtr(), kPassMaskAll);

    PolicySummary sum;
    p.summarize(sum);
    EXPECT_EQ(sum.kind, "static");
    EXPECT_EQ(sum.finalMask, kPassMaskAll);
    EXPECT_EQ(sum.windows, 0u);
    EXPECT_EQ(sum.switches, 0u);
    EXPECT_TRUE(sum.phases.empty());
}

// --------------------------------------------------------------------
// Oracle policy
// --------------------------------------------------------------------

/**
 * Retire one 1000-instruction window of a synthetic loop nest with
 * blocks at @p base, one commit per cycle from @p now on.
 */
void
retireWindow(FillPolicy &p, Addr base, Cycle &now)
{
    for (unsigned i = 0; i < 1000; ++i)
        p.onRetire(base + (i % 40) * 4, (i % 10) == 9, now++);
}

TEST(OracleFillPolicy, MapParsingAndPhaseLookup)
{
    FillPolicy o(oracleParams("0=all,2=none,*=moves", 1000), kPassMaskAll);
    EXPECT_TRUE(o.observesRetire());

    EXPECT_EQ(o.maskFor(0), kPassMaskAll);
    EXPECT_EQ(o.maskFor(2), kPassMaskNone);
    EXPECT_EQ(o.maskFor(1), kPassMarkMoves);    // falls to '*'
    EXPECT_EQ(o.maskFor(7), kPassMarkMoves);

    // Initial mask is the phase-0 prediction, not a runtime switch.
    EXPECT_EQ(o.mask(), kPassMaskAll);
    EXPECT_EQ(o.switches(), 0u);

    // Three distinct loops label phases 0, 1 and 2; each window's
    // label picks the mask for the next window.
    Cycle now = 0;
    retireWindow(o, 0x1000, now);
    EXPECT_EQ(o.mask(), kPassMaskAll);
    EXPECT_EQ(o.switches(), 0u);
    retireWindow(o, 0x80000, now);
    EXPECT_EQ(o.mask(), kPassMarkMoves);
    EXPECT_EQ(o.switches(), 1u);
    retireWindow(o, 0x100000, now);
    EXPECT_EQ(o.mask(), kPassMaskNone);
    EXPECT_EQ(o.switches(), 2u);
    retireWindow(o, 0x1000, now);
    EXPECT_EQ(o.mask(), kPassMaskAll);
    EXPECT_EQ(o.switches(), 3u);

    PolicySummary sum;
    o.summarize(sum);
    EXPECT_EQ(sum.windows, 4u);
    EXPECT_EQ(sum.phasesSeen, 3u);
    ASSERT_EQ(sum.phases.size(), 3u);
    EXPECT_EQ(sum.phases[0].windows, 2u);
    EXPECT_EQ(sum.phases[1].mask, kPassMarkMoves);
    EXPECT_EQ(sum.phases[2].mask, kPassMaskNone);
}

TEST(OracleFillPolicy, UniformMapNeverSwitches)
{
    FillPolicy o(oracleParams("*=7", 1000), kPassMaskAll);
    EXPECT_EQ(o.mask(), 7u);
    Cycle now = 0;
    for (Addr base : {0x1000, 0x80000, 0x100000, 0x1000})
        retireWindow(o, base, now);
    EXPECT_EQ(o.windows(), 4u);
    EXPECT_EQ(o.mask(), 7u);
    EXPECT_EQ(o.switches(), 0u);
}

TEST(OracleFillPolicyDeathTest, RejectsMalformedMaps)
{
    auto build = [](const std::string &map) {
        FillPolicy p(oracleParams(map, 10'000), kPassMaskAll);
    };
    EXPECT_DEATH(build(""), "needs --policy-map");
    EXPECT_DEATH(build("nokey"), "not KEY=MASK");
    EXPECT_DEATH(build("x=all"), "not a phase id");
    EXPECT_DEATH(build("0=bogus"), "bogus");
    // Phase ids are ints: a key past INT_MAX is refused, not thrown
    // out of the parser or wrapped onto a small id.
    EXPECT_DEATH(build("99999999999999999999=all"),
                 "'99999999999999999999' is out of range");
    EXPECT_DEATH(build("4294967296=all"), "'4294967296' is out of range");
}

/** @p map written back as an oracle map spec. */
std::string
oracleMapSpec(const OracleMap &map)
{
    std::string spec;
    for (const auto &[id, mask] : map.phases)
        spec += std::to_string(id) + "=" + std::to_string(mask) + ",";
    if (map.fallback)
        spec += "*=" + std::to_string(*map.fallback) + ",";
    spec.pop_back();
    return spec;
}

// Seeded random token strings, built as KEY=MASK lists with hostile
// tokens and stray separators mixed in: every one is refused with a
// reason, or parses to ids and masks in range that survive a
// write-back.
TEST(OracleMapFuzz, RandomTokenStringsRejectOrRoundTrip)
{
    const char *const keys[] = {
        "*", "0", "1", "7", "2147483647", "2147483648", "4294967296",
        "99999999999999999999", "", "-1", "x", " 1", "0x1",
    };
    const char *const masks[] = {
        "all", "none", "extended", "moves", "reassoc", "scaled", "dce",
        "placement", "0", "31", "32", "99999999999999999999", "bogus",
        "",
    };
    const char *const seps[] = {",", ",", ",", ",", "", ",,", "=", "+"};
    Random rng(0x0acc1e);
    unsigned accepted = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        std::string spec;
        const std::size_t entries = rng.below(5);
        for (std::size_t e = 0; e < entries; ++e) {
            if (e > 0)
                spec += seps[rng.below(std::size(seps))];
            spec += keys[rng.below(std::size(keys))];
            spec += rng.percent(90) ? "=" : "";
            spec += masks[rng.below(std::size(masks))];
            if (rng.percent(20)) {
                spec += "+";
                spec += masks[rng.below(std::size(masks))];
            }
        }

        OracleMap map;
        std::string err;
        if (!parseOracleMap(spec, map, err)) {
            EXPECT_FALSE(err.empty()) << "'" << spec << "'";
            continue;
        }
        ++accepted;
        ASSERT_TRUE(!map.phases.empty() || map.fallback) << spec;
        for (const auto &[id, mask] : map.phases) {
            EXPECT_GE(id, 0) << spec;
            EXPECT_LE(mask, kPassMaskEvery) << spec;
        }
        OracleMap again;
        ASSERT_TRUE(parseOracleMap(oracleMapSpec(map), again, err))
            << spec << ": " << err;
        EXPECT_EQ(again.phases, map.phases) << spec;
        EXPECT_EQ(again.fallback, map.fallback) << spec;
    }
    // The generator must reach the accepting paths, not only errors.
    EXPECT_GT(accepted, 100u);
}

// --------------------------------------------------------------------
// Online phase tracker
// --------------------------------------------------------------------

/** Feed one window of a synthetic loop nest with blocks at @p base. */
void
feedPattern(OnlinePhaseTracker &t, Addr base)
{
    for (unsigned i = 0; i < 1000; ++i)
        t.note(base + (i % 40) * 4, (i % 10) == 9);
}

TEST(PhaseTracker, RecurringPatternsKeepTheirLabel)
{
    OnlinePhaseTracker t(8, 0.05);
    feedPattern(t, 0x1000);
    EXPECT_EQ(t.closeWindow(1000), 0);
    feedPattern(t, 0x1000);
    EXPECT_EQ(t.closeWindow(1000), 0);
    feedPattern(t, 0x80000);
    EXPECT_EQ(t.closeWindow(1000), 1);
    feedPattern(t, 0x1000);
    EXPECT_EQ(t.closeWindow(1000), 0);
    EXPECT_EQ(t.phases(), 2u);
}

TEST(PhaseTracker, PhaseCapFallsBackToNearest)
{
    OnlinePhaseTracker t(1, 1e-6);
    feedPattern(t, 0x1000);
    EXPECT_EQ(t.closeWindow(1000), 0);
    // A very different window still labels 0 once the cap is hit.
    feedPattern(t, 0x90000);
    EXPECT_EQ(t.closeWindow(1000), 0);
    EXPECT_EQ(t.phases(), 1u);
}

// --------------------------------------------------------------------
// Sim-level contracts
// --------------------------------------------------------------------

/**
 * Deterministic timing fields two runs of the same point must share
 * (mirrors test_runner.cc's expectIdentical).
 */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tcHits, b.tcHits);
    EXPECT_EQ(a.tcMisses, b.tcMisses);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.inactiveRescues, b.inactiveRescues);
    EXPECT_EQ(a.mispredictStallCycles, b.mispredictStallCycles);
    EXPECT_EQ(a.segmentsBuilt, b.segmentsBuilt);
    EXPECT_EQ(a.dynMoves, b.dynMoves);
    EXPECT_EQ(a.dynReassoc, b.dynReassoc);
    EXPECT_EQ(a.dynScaled, b.dynScaled);
    EXPECT_EQ(a.dynElided, b.dynElided);
    EXPECT_EQ(a.dynMoveIdioms, b.dynMoveIdioms);
    EXPECT_EQ(a.bypassDelayed, b.bypassDelayed);
}

void
expectSameSummary(const PolicySummary &a, const PolicySummary &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.finalMask, b.finalMask);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.switches, b.switches);
    EXPECT_EQ(a.phasesSeen, b.phasesSeen);
    EXPECT_EQ(a.movesMarked, b.movesMarked);
    EXPECT_EQ(a.reassociations, b.reassociations);
    EXPECT_EQ(a.scaledAdds, b.scaledAdds);
    EXPECT_EQ(a.deadElided, b.deadElided);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        SCOPED_TRACE("phase row " + std::to_string(i));
        EXPECT_EQ(a.phases[i].phase, b.phases[i].phase);
        EXPECT_EQ(a.phases[i].mask, b.phases[i].mask);
        EXPECT_EQ(a.phases[i].windows, b.phases[i].windows);
        EXPECT_EQ(a.phases[i].insts, b.phases[i].insts);
        EXPECT_EQ(a.phases[i].cycles, b.phases[i].cycles);
    }
}

/**
 * An oracle that switches masks, as in the compress-policy-oracle
 * golden fixture: four tracked phases, the last falling to '*'.
 */
SimConfig
switchingOracleCfg()
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "oracle";
    cfg.maxInsts = kTestInsts;
    cfg.fill.policy = oracleParams(
        "0=all,1=moves+reassoc+scaled,2=placement,*=none", 2'000);
    cfg.fill.policy.newPhaseDist = 0.002;
    cfg.fill.policy.maxPhases = 4;
    return cfg;
}

/**
 * The seam's central identity: an oracle policy replaying a uniform
 * map must be cycle-identical to the static configuration with that
 * mask — for every one of the 32 optimization combinations. This is
 * what makes per-phase best maps composable from uniform runs.
 */
TEST(PolicySim, UniformOracleMatchesStaticForEveryCombo)
{
    const char *names[] = {"compress", "li", "m88ksim"};
    SimRunner pool(8);

    std::vector<std::shared_future<SimResult>> sf, of;
    for (const char *name : names) {
        for (unsigned m = 0; m <= kPassMaskEvery; ++m) {
            const FillOptimizations opts =
                optsFromPassMask(static_cast<PassMask>(m));
            SimConfig s = SimConfig::withOpts(opts);
            s.name = "static";
            s.maxInsts = kTestInsts;
            SimConfig o = s;
            o.name = "oracle";
            o.fill.policy.kind = FillPolicyKind::Oracle;
            o.fill.policy.windowInsts = 5'000;
            o.fill.policy.oracleMap = "*=" + std::to_string(m);
            sf.push_back(pool.submit(name, s));
            of.push_back(pool.submit(name, o));
        }
    }

    std::size_t i = 0;
    for (const char *name : names) {
        for (unsigned m = 0; m <= kPassMaskEvery; ++m, ++i) {
            SCOPED_TRACE(std::string(name) + " mask " + std::to_string(m));
            const SimResult s = sf[i].get();
            const SimResult o = of[i].get();
            expectIdentical(s, o);
            EXPECT_EQ(s.policy, nullptr);
            ASSERT_NE(o.policy, nullptr);
            EXPECT_EQ(o.policy->kind, "oracle");
            EXPECT_EQ(o.policy->finalMask, m);
            EXPECT_EQ(o.policy->switches, 0u);
            EXPECT_EQ(o.policy->windows, kTestInsts / 5'000);
        }
    }
}

TEST(PolicySim, PhaseDeterministicAcrossThreadCounts)
{
    const SimConfig cfg = switchingOracleCfg();
    for (const char *name : {"compress", "li"}) {
        SimRunner serial(1);
        SimRunner parallel(8);
        const SimResult a = serial.run(name, cfg);
        const SimResult b = parallel.run(name, cfg);
        SCOPED_TRACE(name);
        expectIdentical(a, b);
        ASSERT_NE(a.policy, nullptr);
        ASSERT_NE(b.policy, nullptr);
        expectSameSummary(*a.policy, *b.policy);
        EXPECT_EQ(a.policy->kind, "oracle");
        EXPECT_GT(a.policy->windows, 0u);
        EXPECT_GT(a.policy->switches, 0u);
    }
}

/** Capture @p workload's committed stream into a string. */
std::string
captureWorkload(const std::string &workload, const SimConfig &cfg)
{
    std::ostringstream os;
    const Program prog = workloads::build(workload, 1);
    tracefile::TraceMeta meta;
    meta.workload = prog.name;
    meta.config = cfg.name;
    meta.entryPc = prog.entry;
    meta.maxInsts = cfg.maxInsts;
    Executor exec(prog);
    tracefile::TraceWriter writer(os, meta);
    tracefile::RecordingSource source(exec, writer);
    Processor proc(source, prog.name, prog.entry, cfg);
    proc.run();
    writer.finish();
    return os.str();
}

/**
 * The oracle is a deterministic function of the committed stream and
 * cycle counts, so a replayed trace reproduces not just the timing
 * but the full decision record.
 */
TEST(PolicySim, AdaptivePoliciesIdenticalUnderReplay)
{
    const SimConfig cfg = switchingOracleCfg();
    const Program prog = workloads::build("compress", 1);
    Processor live(prog, cfg);
    const SimResult live_res = live.run();

    const std::string bytes = captureWorkload("compress", cfg);
    std::istringstream is(bytes);
    tracefile::ReplayExecutor rx(is, "compress");
    Processor replay(rx, rx.meta().workload, rx.meta().entryPc, cfg);
    const SimResult replay_res = replay.run();

    expectIdentical(live_res, replay_res);
    ASSERT_NE(live_res.policy, nullptr);
    ASSERT_NE(replay_res.policy, nullptr);
    expectSameSummary(*live_res.policy, *replay_res.policy);
    EXPECT_GT(live_res.policy->switches, 0u);
}

} // namespace
} // namespace tcfill
