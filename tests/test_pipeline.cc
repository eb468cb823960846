/**
 * @file
 * Direct unit tests for the decomposed pipeline stages (DESIGN.md
 * §10): each stage is driven in isolation through stub latches, plus
 * a StagePolicy substitution check through the composition root.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "pipeline/dispatch_rename.hh"
#include "pipeline/fetch_engine.hh"
#include "pipeline/issue_stage.hh"
#include "pipeline/latches.hh"
#include "pipeline/oracle.hh"
#include "pipeline/policy.hh"
#include "pipeline/recovery.hh"
#include "pipeline/retire_unit.hh"
#include "sim/processor.hh"

namespace tcfill
{
namespace
{

using namespace tcfill::pipeline;

/** A counted loop; long enough to exercise every stage. */
Program
loopProgram(int iters)
{
    ProgramBuilder pb("ut-loop");
    pb.li(2, iters);
    pb.li(3, 0);
    Label top = pb.newLabel();
    pb.bind(top);
    pb.add(3, 3, 2);
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    return pb.finish();
}

/** A short straight-line program (entry + a few ALU ops + halt). */
Program
straightProgram(int alu_ops = 2)
{
    ProgramBuilder pb("ut-straight");
    pb.li(1, 7);
    for (int i = 0; i < alu_ops; ++i)
        pb.addi(1, 1, 1);
    pb.halt();
    return pb.finish();
}

/** Stub machine: every substrate a stage env can ask for. */
struct StubMachine
{
    explicit StubMachine(const Program &prog)
        : exec(prog), mem(cfg.mem), bias(cfg.bias),
          tcache(cfg.tcache), fill(cfg.fill, tcache, bias),
          oracle(exec),
          issue(IssueEnv{cfg.core, mem, dispatch_latch, events})
    {
        ctrl.pc = prog.entry;
    }

    SimConfig cfg = SimConfig::withOpts(FillOptimizations::none());
    SlabArena arena;
    Executor exec;
    MemoryHierarchy mem;
    BiasTable bias;
    TraceCache tcache;
    FillUnit fill;
    OracleStream oracle;

    FetchControl ctrl;
    FetchLatch fetch_latch;
    DispatchLatch dispatch_latch;
    InstWindow window;
    ResolutionQueue events;

    IssueStage issue;
};

/** A heap-backed window entry for latch-only stage tests. */
DynInstPtr
windowInst(InstSeqNum seq, Addr pc = 0x1000)
{
    DynInstPtr di = allocDynInst();
    di->seq = seq;
    di->pc = pc;
    return di;
}

// --------------------------------------------------------------------
// FetchEngine: oracle -> FetchLatch handoff
// --------------------------------------------------------------------

TEST(FetchEngine, HandsCommittedPathLinesToLatch)
{
    Program p = straightProgram();
    StubMachine m(p);
    FetchEngine fetch(FetchEnv{m.cfg, m.oracle, m.arena, m.mem,
                               m.tcache, m.ctrl, m.fetch_latch,
                               m.issue.numFus()});

    // Cold caches: the first ticks ride out the I-cache miss, then a
    // line lands in the latch.
    Cycle now = 0;
    while (m.fetch_latch.empty() && now < 1000)
        fetch.tick(now++);
    ASSERT_FALSE(m.fetch_latch.empty());

    const FetchLine &line = m.fetch_latch.lines.front();
    ASSERT_FALSE(line.insts.empty());
    EXPECT_FALSE(line.fromTrace);  // nothing installed yet
    EXPECT_EQ(line.insts.front()->pc, p.entry);
    EXPECT_EQ(line.insts.front()->seq, 1u);
    for (std::size_t i = 1; i < line.insts.size(); ++i)
        EXPECT_EQ(line.insts[i]->seq, line.insts[i - 1]->seq + 1);
    stats::Group g("sim");
    fetch.regStats(g);
    EXPECT_EQ(g.counterValue("fetch.icache_lines"), 1u);
}

TEST(FetchEngine, RespectsLatchCapacity)
{
    // Straight-line code: no branch ever stalls fetch, so only the
    // latch capacity can throttle it.
    Program p = straightProgram(200);
    StubMachine m(p);
    FetchEngine fetch(FetchEnv{m.cfg, m.oracle, m.arena, m.mem,
                               m.tcache, m.ctrl, m.fetch_latch,
                               m.issue.numFus()});

    // Never drain the latch: fetch must self-throttle at the
    // configured queue depth instead of growing without bound.
    for (Cycle now = 0; now < 2000; ++now) {
        fetch.tick(now);
        ASSERT_LE(m.fetch_latch.size(), m.cfg.fetchQueueLines);
    }
    EXPECT_EQ(m.fetch_latch.size(), m.cfg.fetchQueueLines);
}

// --------------------------------------------------------------------
// RecoveryController: squash / rescue sequence-range edges
// --------------------------------------------------------------------

struct RecoveryFixture : ::testing::Test
{
    RecoveryFixture()
        : m(loopProgram(4)),
          recovery(RecoveryEnv{m.window, rename, m.ctrl, m.fetch_latch,
                               m.issue, m.events})
    {
        for (InstSeqNum s = 1; s <= 10; ++s)
            m.window.insts.push_back(windowInst(s));
        recovery.regStats(registry);
    }

    bool squashed(InstSeqNum s) const
    {
        return m.window.insts[s - 1]->squashed();
    }

    StubMachine m;
    RenameTable rename;
    RecoveryController recovery;
    stats::Group registry{"sim"};
};

TEST_F(RecoveryFixture, SquashRangeBoundsAreHalfOpen)
{
    // Squash [4, 9) sparing the rescue range [6, 8).
    recovery.squashWindow(4, 9, 6, 8, /*now=*/5);

    for (InstSeqNum s : {1u, 2u, 3u})
        EXPECT_FALSE(squashed(s)) << "seq " << s << " below lo";
    EXPECT_TRUE(squashed(4));   // lo is inclusive
    EXPECT_TRUE(squashed(5));
    EXPECT_FALSE(squashed(6));  // rescue lo is inclusive
    EXPECT_FALSE(squashed(7));
    EXPECT_TRUE(squashed(8));   // rescue hi is exclusive
    EXPECT_FALSE(squashed(9));  // hi is exclusive
    EXPECT_FALSE(squashed(10));
    EXPECT_EQ(registry.counterValue("recovery.squashes"), 1u);
}

TEST_F(RecoveryFixture, MispredictRescuesInactiveRangeAndRedirects)
{
    // Window: branch at seq 5; 6..7 fetched inactively along the
    // correct path (the rescue range); 8.. on the wrong path.
    DynInstPtr br = m.window.insts[4];
    br->isBranch = true;
    br->mispredicted = true;
    br->redirectPc = 0x4444;
    br->fetchCycle = 2;
    br->rescueLo = 6;
    br->rescueHi = 8;
    for (InstSeqNum s : {6u, 7u})
        m.window.insts[s - 1]->inactive = true;

    recovery.resolveBranch(br, /*now=*/10);

    EXPECT_FALSE(m.window.insts[5]->inactive);  // rescued...
    EXPECT_FALSE(m.window.insts[6]->inactive);
    EXPECT_FALSE(squashed(6));                  // ...and spared
    EXPECT_FALSE(squashed(7));
    EXPECT_TRUE(squashed(8));                   // wrong path dies
    EXPECT_TRUE(squashed(10));
    EXPECT_FALSE(squashed(5));                  // the branch survives
    EXPECT_EQ(m.ctrl.pc, 0x4444u);              // fetch redirected
    EXPECT_EQ(m.ctrl.avail, 11u);               // next cycle at best
    // Stall charged from fetch of the branch to its resolution.
    EXPECT_EQ(recovery.stallCycles(), 8u);
    EXPECT_EQ(registry.counterValue("recovery.rescued_insts"), 2u);
}

TEST_F(RecoveryFixture, CorrectPredictionDiscardsInactiveTail)
{
    DynInstPtr br = m.window.insts[4];
    br->isBranch = true;
    br->mispredicted = false;
    br->discardLo = 9;
    br->discardHi = 11;

    recovery.resolveBranch(br, /*now=*/3);

    for (InstSeqNum s = 1; s <= 8; ++s)
        EXPECT_FALSE(squashed(s)) << "seq " << s;
    EXPECT_TRUE(squashed(9));
    EXPECT_TRUE(squashed(10));
    EXPECT_EQ(recovery.stallCycles(), 0u);
}

// --------------------------------------------------------------------
// RetireUnit: window head -> FillUnit handoff
// --------------------------------------------------------------------

TEST(RetireUnit, FeedsCommittedInstructionsToFillUnit)
{
    // A loop: retiring past the conditional-branch budget
    // (kSegmentMaxCondBranches) closes a fill-unit segment, which is
    // when the fill.segments/insts counters observe the handoff.
    Program p = loopProgram(8);
    StubMachine m(p);
    RetireUnit retire(RetireEnv{m.cfg, m.window, m.oracle, m.fill,
                                m.issue, m.ctrl});

    // Fabricate completed in-flight instructions matching the
    // committed path, exactly as fetch+issue would have left them —
    // four loop iterations' worth (four conditional branches).
    const std::size_t kInsts = 14;
    const std::size_t n = m.oracle.ensure(kInsts);
    ASSERT_GE(n, kInsts);
    for (std::size_t i = 0; i < kInsts; ++i) {
        const ExecRecord &rec = m.oracle.at(i);
        DynInstPtr di = windowInst(i + 1, rec.pc);
        di->inst = rec.inst;
        di->archInst = rec.inst;
        di->nextPc = rec.nextPc;
        di->taken = rec.taken;
        di->phase = InstPhase::Complete;
        di->completeCycle = 4;
        if (i == 1)
            di->moveMarked = true;  // dynamic-optimization accounting
        m.window.insts.push_back(di);
    }
    m.oracle.consume(kInsts);

    // Not complete yet at cycle 3: nothing may retire.
    retire.tick(3);
    EXPECT_EQ(retire.retired(), 0u);

    retire.tick(4);
    EXPECT_EQ(retire.retired(), kInsts);
    EXPECT_TRUE(m.window.empty());
    EXPECT_EQ(retire.lastRetireCycle(), 4u);
    stats::Group g("sim");
    retire.regStats(g);
    m.fill.regStats(g);
    EXPECT_EQ(g.counterValue("retire.dyn_moves"), 1u);

    // The fill unit collected the committed stream and closed at
    // least the first loop body into a segment.
    EXPECT_GT(g.counterValue("fill.segments"), 0u);
    EXPECT_GT(g.counterValue("fill.insts"), 0u);
}

TEST(RetireUnit, InactiveHeadBlocksRetirement)
{
    Program p = straightProgram();
    StubMachine m(p);
    RetireUnit retire(RetireEnv{m.cfg, m.window, m.oracle, m.fill,
                                m.issue, m.ctrl});

    DynInstPtr di = windowInst(1, p.entry);
    di->phase = InstPhase::Complete;
    di->completeCycle = 0;
    di->inactive = true;  // not yet activated by its branch
    m.window.insts.push_back(di);

    retire.tick(10);
    EXPECT_EQ(retire.retired(), 0u);
    EXPECT_FALSE(m.window.empty());
}

// --------------------------------------------------------------------
// StagePolicy: the composition root honors stage substitution
// --------------------------------------------------------------------

struct CountingRetire : RetireUnit
{
    explicit CountingRetire(const RetireEnv &env) : RetireUnit(env) {}

    void
    tick(Cycle now) override
    {
        ++ticks;
        RetireUnit::tick(now);
    }

    Cycle ticks = 0;
};

TEST(StagePolicy, SubstituteStageIsTimingTransparent)
{
    Program p = loopProgram(300);
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());

    SimResult base = simulate(p, cfg);

    CountingRetire *counting = nullptr;
    StagePolicy policy;
    policy.makeRetire = [&](const RetireEnv &env) {
        auto stage = std::make_unique<CountingRetire>(env);
        counting = stage.get();
        return stage;
    };
    Processor proc(p, cfg, policy);
    SimResult sub = proc.run();

    ASSERT_NE(counting, nullptr);
    // The processor skips quiescent cycles, so the stage ticks at
    // most once per simulated cycle — but substitution must not
    // change the cycle count or any architectural outcome.
    EXPECT_GT(counting->ticks, 0u);
    EXPECT_LE(counting->ticks, sub.cycles);
    EXPECT_EQ(sub.cycles, base.cycles);      // changed nothing
    EXPECT_EQ(sub.retired, base.retired);
    EXPECT_EQ(sub.mispredicts, base.mispredicts);
}

} // namespace
} // namespace tcfill
