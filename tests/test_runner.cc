/**
 * @file
 * SimRunner tests: parallel results bit-identical to serial runs,
 * result-cache behavior, config-key coverage, and DynInst slab-pool
 * recycling (run under ASan/TSan in CI).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "sim/processor.hh"
#include "sim/runner.hh"
#include "uarch/inst_pool.hh"
#include "workloads/suite.hh"

namespace tcfill
{
namespace
{

constexpr InstSeqNum kTestInsts = 20'000;

SimConfig
cfgAt(const FillOptimizations &opts, const std::string &name)
{
    SimConfig cfg = SimConfig::withOpts(opts);
    cfg.name = name;
    cfg.maxInsts = kTestInsts;
    return cfg;
}

std::vector<SimConfig>
testConfigs()
{
    return {cfgAt(FillOptimizations::none(), "none"),
            cfgAt(FillOptimizations::all(), "all"),
            cfgAt(FillOptimizations::extended(), "extended")};
}

/**
 * Every deterministic field two runs of the same point must share.
 * Provenance fields (cacheHit) and wall-clock fields (hostSeconds)
 * are deliberately excluded: they describe how a result was obtained,
 * not what was simulated.
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
    EXPECT_DOUBLE_EQ(a.ipc(), b.ipc());
}

TEST(SimRunner, ParallelMatchesSerial)
{
    const char *names[] = {"compress", "li", "perl"};
    SimRunner pool(4);

    // Enqueue all 9 points first so they genuinely run concurrently.
    std::vector<std::shared_future<SimResult>> futs;
    for (const char *name : names)
        for (const auto &cfg : testConfigs())
            futs.push_back(pool.submit(name, cfg));

    std::size_t i = 0;
    for (const char *name : names) {
        Program prog = workloads::build(name, 1);
        for (const auto &cfg : testConfigs()) {
            SimResult serial = simulate(prog, cfg);
            SimResult parallel = futs[i++].get();
            SCOPED_TRACE(std::string(name) + "/" + cfg.name);
            expectIdentical(serial, parallel);
        }
    }
}

TEST(SimRunner, CacheReturnsHitsForRepeatedConfigs)
{
    SimRunner pool(2);
    SimConfig cfg = cfgAt(FillOptimizations::all(), "all");

    SimResult first = pool.run("compress", cfg);
    EXPECT_EQ(pool.cacheStats().resultMisses, 1u);
    EXPECT_EQ(pool.cacheStats().resultHits, 0u);

    SimResult second = pool.run("compress", cfg);
    EXPECT_EQ(pool.cacheStats().resultMisses, 1u);
    EXPECT_EQ(pool.cacheStats().resultHits, 1u);
    expectIdentical(first, second);

    // The cosmetic name is not part of the key, but the label on the
    // returned copy follows the request.
    SimConfig renamed = cfg;
    renamed.name = "same-params-different-name";
    SimResult third = pool.run("compress", renamed);
    EXPECT_EQ(pool.cacheStats().resultHits, 2u);
    EXPECT_EQ(third.config, "same-params-different-name");
    expectIdentical(first, third);

    // Any parameter change must miss.
    SimConfig changed = cfg;
    changed.fill.latency = cfg.fill.latency + 1;
    pool.run("compress", changed);
    EXPECT_EQ(pool.cacheStats().resultMisses, 2u);
}

TEST(SimRunner, ConfigKeyCoversEveryKnob)
{
    // One mutation per behavior-affecting field of SimConfig and every
    // nested params struct; each must change the cache key, or the
    // SimRunner would silently alias distinct design points. The
    // static_assert tripwires next to the knob table, visitKnobs(),
    // force this list to grow with the structs. (CacheParams::name is
    // cosmetic, like SimConfig::name, and intentionally absent.)
    struct Knob
    {
        const char *name;
        void (*mutate)(SimConfig &);
    };
    const Knob knobs[] = {
        // SimConfig scalars.
        {"useTraceCache", [](SimConfig &c) { c.useTraceCache = false; }},
        {"inactiveIssue", [](SimConfig &c) { c.inactiveIssue = false; }},
        {"fetchWidth", [](SimConfig &c) { c.fetchWidth = 8; }},
        {"fetchQueueLines", [](SimConfig &c) { c.fetchQueueLines = 2; }},
        {"retireWidth", [](SimConfig &c) { c.retireWidth = 4; }},
        {"windowCap", [](SimConfig &c) { c.windowCap = 64; }},
        {"rasDepth", [](SimConfig &c) { c.rasDepth = 2; }},
        {"maxInsts", [](SimConfig &c) { c.maxInsts = 123; }},
        {"maxCycles", [](SimConfig &c) { c.maxCycles = 456; }},
        // Timeline telemetry changes the result document (not its
        // timing), so it must key the cache too.
        {"statsInterval", [](SimConfig &c) { c.statsInterval = 777; }},
        {"statsPhases", [](SimConfig &c) { c.statsPhases = 5; }},
        // FillUnitConfig.
        {"fill.latency", [](SimConfig &c) { c.fill.latency = 9; }},
        {"fill.restartAtMissTargets",
         [](SimConfig &c) { c.fill.restartAtMissTargets = false; }},
        {"fill.promoteBranches",
         [](SimConfig &c) { c.fill.promoteBranches = false; }},
        {"fill.maxInsts", [](SimConfig &c) { c.fill.maxInsts = 8; }},
        {"fill.maxCondBranches",
         [](SimConfig &c) { c.fill.maxCondBranches = 1; }},
        // FillOptimizations.
        {"opts.markMoves",
         [](SimConfig &c) { c.fill.opts.markMoves = true; }},
        {"opts.reassociate",
         [](SimConfig &c) { c.fill.opts.reassociate = true; }},
        {"opts.scaledAdds",
         [](SimConfig &c) { c.fill.opts.scaledAdds = true; }},
        {"opts.placement",
         [](SimConfig &c) { c.fill.opts.placement = true; }},
        {"opts.deadCodeElim",
         [](SimConfig &c) { c.fill.opts.deadCodeElim = true; }},
        // ReassocOptions.
        {"reassoc.crossBlockOnly",
         [](SimConfig &c) {
             c.fill.opts.reassocOptions.crossBlockOnly = false;
         }},
        {"reassoc.foldMemDisplacement",
         [](SimConfig &c) {
             c.fill.opts.reassocOptions.foldMemDisplacement = false;
         }},
        // FillPolicyParams.
        {"policy.kind",
         [](SimConfig &c) {
             c.fill.policy.kind = FillPolicyKind::Oracle;
         }},
        {"policy.maxPhases",
         [](SimConfig &c) { c.fill.policy.maxPhases = 4; }},
        {"policy.windowInsts",
         [](SimConfig &c) { c.fill.policy.windowInsts = 5000; }},
        {"policy.newPhaseDist",
         [](SimConfig &c) { c.fill.policy.newPhaseDist = 0.5; }},
        {"policy.oracleMap",
         [](SimConfig &c) { c.fill.policy.oracleMap = "*=none"; }},
        // TraceCache::Params.
        {"tcache.entries", [](SimConfig &c) { c.tcache.entries = 64; }},
        {"tcache.ways", [](SimConfig &c) { c.tcache.ways = 2; }},
        // MemoryHierarchy::Params (every CacheParams field × level).
        {"mem.l1i.sizeBytes",
         [](SimConfig &c) { c.mem.l1i.sizeBytes = 1024; }},
        {"mem.l1i.lineBytes",
         [](SimConfig &c) { c.mem.l1i.lineBytes = 32; }},
        {"mem.l1i.ways", [](SimConfig &c) { c.mem.l1i.ways = 1; }},
        {"mem.l1d.sizeBytes",
         [](SimConfig &c) { c.mem.l1d.sizeBytes = 1024; }},
        {"mem.l1d.lineBytes",
         [](SimConfig &c) { c.mem.l1d.lineBytes = 32; }},
        {"mem.l1d.ways", [](SimConfig &c) { c.mem.l1d.ways = 1; }},
        {"mem.l2.sizeBytes",
         [](SimConfig &c) { c.mem.l2.sizeBytes = 65536; }},
        {"mem.l2.lineBytes",
         [](SimConfig &c) { c.mem.l2.lineBytes = 32; }},
        {"mem.l2.ways", [](SimConfig &c) { c.mem.l2.ways = 1; }},
        {"mem.l2Latency", [](SimConfig &c) { c.mem.l2Latency = 11; }},
        {"mem.memLatency", [](SimConfig &c) { c.mem.memLatency = 99; }},
        {"mem.memBusOccupancy",
         [](SimConfig &c) { c.mem.memBusOccupancy = 3; }},
        // MultiBranchPredictor::Params.
        {"bpred.pht0Entries",
         [](SimConfig &c) { c.bpred.pht0Entries = 512; }},
        {"bpred.pht1Entries",
         [](SimConfig &c) { c.bpred.pht1Entries = 512; }},
        {"bpred.pht2Entries",
         [](SimConfig &c) { c.bpred.pht2Entries = 512; }},
        {"bpred.historyBits",
         [](SimConfig &c) { c.bpred.historyBits = 7; }},
        // BiasTable::Params.
        {"bias.entries", [](SimConfig &c) { c.bias.entries = 512; }},
        {"bias.promoteThreshold",
         [](SimConfig &c) { c.bias.promoteThreshold = 3; }},
        // ExecCoreParams.
        {"core.numClusters",
         [](SimConfig &c) { c.core.numClusters = 2; }},
        {"core.fusPerCluster",
         [](SimConfig &c) { c.core.fusPerCluster = 2; }},
        {"core.rsEntries", [](SimConfig &c) { c.core.rsEntries = 8; }},
        {"core.crossClusterDelay",
         [](SimConfig &c) { c.core.crossClusterDelay = 4; }},
    };

    const SimConfig base;
    const std::string base_key = configCacheKey(base);
    for (const Knob &k : knobs) {
        SimConfig mutated = base;
        k.mutate(mutated);
        SCOPED_TRACE(k.name);
        EXPECT_NE(configCacheKey(mutated), base_key);
    }

    // The name alone must NOT change the key (baseline sharing).
    SimConfig renamed = base;
    renamed.name = "renamed";
    EXPECT_EQ(configCacheKey(renamed), base_key);
}

// TCFILL_THREADS counts from 1 to kMaxThreads, read strictly; any
// other value falls back to the default with a warning. No pool is
// built here: a count past the cap is only parsed.
TEST(SimRunner, DefaultThreadsIgnoresInvalidEnvironment)
{
    const char *saved = std::getenv("TCFILL_THREADS");
    const std::string keep = saved ? saved : "";
    unsetenv("TCFILL_THREADS");
    const unsigned fallback = SimRunner::defaultThreads();
    const unsigned cap = SimRunner::kMaxThreads;
    const std::pair<std::string, unsigned> cases[] = {
        {"3", 3}, {std::to_string(cap), cap},
        {std::to_string(cap + 1), fallback}, {"0", fallback},
        {"-1", fallback}, {"4x", fallback}, {"abc", fallback},
    };
    for (const auto &[env, want] : cases) {
        setenv("TCFILL_THREADS", env.c_str(), 1);
        EXPECT_EQ(SimRunner::defaultThreads(), want) << env;
    }
    if (saved)
        setenv("TCFILL_THREADS", keep.c_str(), 1);
    else
        unsetenv("TCFILL_THREADS");
}

TEST(SimRunner, CacheHitProvenanceIsRecorded)
{
    SimRunner pool(2);
    SimConfig cfg = cfgAt(FillOptimizations::all(), "all");

    SimResult first = pool.run("compress", cfg);
    EXPECT_EQ(first.cacheHit, "computed");
    SimResult second = pool.run("compress", cfg);
    EXPECT_EQ(second.cacheHit, "memory");
    EXPECT_EQ(first.sourceDigest, workloadDigest("compress", 1));
    // Provenance never changes the simulated outcome.
    expectIdentical(first, second);
}

TEST(SimRunner, ProgramCacheBuildsOnce)
{
    SimRunner pool(2);
    auto a = pool.program("compress", 1);
    auto b = pool.program("compress", 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(pool.cacheStats().programsBuilt, 1u);
    auto c = pool.program("compress", 2);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(pool.cacheStats().programsBuilt, 2u);
}

TEST(SlabArena, RecyclesBlocksThroughTheFreeList)
{
    SlabArena arena;
    // Churn instructions the way the fetch/retire loop does: allocate
    // a line's worth, free them oldest first, allocate again. Under
    // ASan a free block is poisoned, so this also proves a recycled
    // block is unpoisoned before it is handed out again.
    std::vector<DynInst *> line;
    for (int round = 0; round < 64; ++round) {
        for (int i = 0; i < 16; ++i) {
            DynInst *di = allocDynInst(arena);
            di->seq = static_cast<InstSeqNum>(round * 16 + i);
            di->pc = 0x400000 + 4 * static_cast<Addr>(i);
            line.push_back(di);
        }
        EXPECT_EQ(arena.live(), 16u);
        // Link operands like rename does, then retire.
        for (std::size_t i = 1; i < line.size(); ++i)
            line[i]->src[0] = Operand::of(*line[i - 1]);
        for (DynInst *di : line) {
            EXPECT_FALSE(di->squashed());
            freeDynInst(arena, di);
        }
        line.clear();
    }
    EXPECT_EQ(arena.live(), 0u);
    // After the first round every allocation is a free-list reuse.
    EXPECT_GE(arena.reused(), 16u * 63u);
    EXPECT_EQ(arena.slabs(), 1u);
}

TEST(SlabArena, EveryBlockComesBackAfterEachRun)
{
    // Processor::run() panics unless the arena's live count equals the
    // instructions left in the window and fetch latch, and the arena
    // panics unless the Processor's teardown brought it back to 0.
    // Each run below destroys its Processor, so each passes both
    // checks or aborts the test: a run to halt (nothing left), a run
    // capped with work in flight (its 32-entry window backs fetched
    // lines up into the latch), and the mispredict storm's starved
    // predictor (recovery squashes and pops slots all the time).
    Program prog = workloads::build("compress", 1);
    SimConfig halt = SimConfig::withOpts(FillOptimizations::all());
    SimConfig capped = cfgAt(FillOptimizations::all(), "all");
    SimConfig storm = capped;
    capped.windowCap = 32;
    storm.bpred.pht0Entries = 64;
    storm.bpred.pht1Entries = 32;
    storm.bpred.pht2Entries = 16;
    storm.bpred.historyBits = 4;

    const SimResult whole = Processor(prog, halt).run();
    EXPECT_EQ(whole.retired, 635'648u);
    const SimResult part = Processor(prog, capped).run();
    EXPECT_EQ(part.retired, kTestInsts);
    const SimResult stormy = Processor(prog, storm).run();
    EXPECT_EQ(stormy.retired, kTestInsts);
    EXPECT_GT(stormy.mispredicts, 100u);
}

TEST(SlabArena, FullSimulationRecyclesAndStaysDeterministic)
{
    // A full simulation allocates far more DynInsts than it ever has
    // in flight, so pooled recycling must engage; and a second run
    // must be bit-identical to the first (recycled blocks carry no
    // state across instructions).
    Program prog = workloads::build("compress", 1);
    SimConfig cfg = cfgAt(FillOptimizations::all(), "all");
    SimResult a = simulate(prog, cfg);
    SimResult b = simulate(prog, cfg);
    EXPECT_EQ(a.retired, kTestInsts);
    expectIdentical(a, b);
}

TEST(SimRunner, ThreadCountDoesNotChangeResults)
{
    SimConfig cfg = cfgAt(FillOptimizations::all(), "all");
    SimRunner one(1);
    SimRunner eight(8);
    SimResult a = one.run("m88ksim", cfg);
    SimResult b = eight.run("m88ksim", cfg);
    expectIdentical(a, b);
}

} // namespace
} // namespace tcfill
