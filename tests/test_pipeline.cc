/**
 * @file
 * Direct unit tests for the decomposed pipeline stages (DESIGN.md
 * §10): each stage is driven in isolation through stub latches.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "pipeline/dispatch_rename.hh"
#include "pipeline/fetch_engine.hh"
#include "pipeline/latches.hh"
#include "pipeline/oracle.hh"
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
          oracle(exec), core(cfg.core, mem)
    {
        ctrl.pc = prog.entry;
    }

    StubMachine(const StubMachine &) = delete;
    StubMachine &operator=(const StubMachine &) = delete;

    /**
     * Frees what is still in flight, as Processor teardown does, plus
     * the instructions a test keeps outside the latches (@c extra).
     */
    ~StubMachine()
    {
        for (DynInst *di : window.insts)
            freeDynInst(arena, di);
        for (const FetchLine &line : fetch_latch.lines) {
            for (DynInst *di : line.insts)
                freeDynInst(arena, di);
        }
        for (DynInst *di : extra)
            freeDynInst(arena, di);
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
    InstWindow window;
    std::vector<DynInst *> extra;

    ExecCore core;
};

/** A window entry for latch-only stage tests. */
DynInst *
windowInst(SlabArena &arena, InstSeqNum seq, Addr pc = 0x1000)
{
    DynInst *di = allocDynInst(arena);
    di->seq = seq;
    di->pc = pc;
    return di;
}

/** A register-to-register ALU instruction for rename tests. */
Instruction
aluInst(RegIndex dest, RegIndex src)
{
    Instruction in;
    in.op = Op::ADD;
    in.dest = dest;
    in.src1 = src;
    in.src2 = kRegZero;
    return in;
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
                               m.core.numFus()});

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
                               m.core.numFus()});

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
                               m.core})
    {
        // Dispatched as rename would, but never issued: each waits in
        // its station until a squash frees the slot.
        for (InstSeqNum s = 1; s <= 10; ++s) {
            DynInst *di = windowInst(m.arena, s);
            di->fu = static_cast<int>(s);
            m.core.dispatch(*di);
            m.window.insts.push_back(di);
        }
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
    EXPECT_EQ(m.core.occupancy(), 7u);      // 4, 5 and 8 left stations
}

/**
 * Window: a mispredicted branch at seq 5; 6..7 fetched inactively
 * along the correct path (the rescue range); 8.. on the wrong path.
 */
DynInst *
mispredictAtSeq5(StubMachine &m)
{
    DynInst *br = m.window.insts[4];
    br->isBranch = true;
    br->mispredicted = true;
    br->redirectPc = 0x4444;
    br->fetchCycle = 2;
    br->rescueLo = 6;
    br->rescueHi = 8;
    for (InstSeqNum s : {6u, 7u})
        m.window.insts[s - 1]->inactive = true;
    return br;
}

TEST_F(RecoveryFixture, MispredictRescuesInactiveRangeAndRedirects)
{
    DynInst *br = mispredictAtSeq5(m);

    recovery.resolveBranch(*br, /*now=*/10);

    // Squashed instructions keep their window slots until retire.
    EXPECT_EQ(m.arena.live(), 10u);
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

// Fetch stalls on a mispredicted branch in the line build that
// fetches it, and lines dispatch whole and in order, so a mispredict
// never resolves with a younger line waiting in the fetch latch: one
// there is a broken invariant, not a line to drop.
using RecoveryDeath = RecoveryFixture;

TEST_F(RecoveryDeath, MispredictWithAYoungerLatchLinePanics)
{
    DynInst *br = mispredictAtSeq5(m);
    m.fetch_latch.lines.push_back(FetchLine{
        9, {windowInst(m.arena, 11), windowInst(m.arena, 12)}, false});
    EXPECT_DEATH(recovery.resolveBranch(*br, /*now=*/10),
                 "mispredict of seq 5 resolved with a non-empty fetch "
                 "latch \\(1 lines\\)");
}

TEST_F(RecoveryFixture, CorrectPredictionDiscardsInactiveTail)
{
    DynInst *br = m.window.insts[4];
    br->isBranch = true;
    br->mispredicted = false;
    br->discardLo = 9;
    br->discardHi = 11;

    recovery.resolveBranch(*br, /*now=*/3);

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
    RenameTable rename;
    RetireUnit retire(RetireEnv{m.cfg, m.window, m.oracle, m.fill,
                                m.core, m.ctrl, rename, m.arena});

    // Fabricate completed in-flight instructions matching the
    // committed path, exactly as fetch+issue would have left them —
    // four loop iterations' worth (four conditional branches).
    const std::size_t kInsts = 14;
    const std::size_t n = m.oracle.ensure(kInsts);
    ASSERT_GE(n, kInsts);
    for (std::size_t i = 0; i < kInsts; ++i) {
        const ExecRecord &rec = m.oracle.at(i);
        DynInst *di = windowInst(m.arena, i + 1, rec.pc);
        di->inst = rec.inst;
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
    EXPECT_EQ(m.arena.live(), 0u);  // every retired slot was freed
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
    RenameTable rename;
    RetireUnit retire(RetireEnv{m.cfg, m.window, m.oracle, m.fill,
                                m.core, m.ctrl, rename, m.arena});

    DynInst *di = windowInst(m.arena, 1, p.entry);
    di->phase = InstPhase::Complete;
    di->completeCycle = 0;
    di->inactive = true;  // not yet activated by its branch
    m.window.insts.push_back(di);

    retire.tick(10);
    EXPECT_EQ(retire.retired(), 0u);
    EXPECT_FALSE(m.window.empty());
}

// --------------------------------------------------------------------
// Sealed operands: nothing reads an instruction after its slot pops
// --------------------------------------------------------------------

/**
 * The stages a value travels through from a producer's rename to a
 * consumer renamed after the producer retired. The producer is the
 * program's first committed instruction (`addi r1, r0, 7`), renamed
 * from an I-cache line at cycle 1 onto fu 0 (cluster 0); it selects
 * at 2 and completes at 3.
 */
struct SealFixture : ::testing::Test
{
    SealFixture()
        : prog(straightProgram()), m(prog),
          dispatch(DispatchEnv{m.cfg, m.fetch_latch, m.window, m.core}),
          retire(RetireEnv{m.cfg, m.window, m.oracle, m.fill, m.core,
                           m.ctrl, dispatch.renameTable(), m.arena}),
          recovery(RecoveryEnv{m.window, dispatch.renameTable(),
                               m.ctrl, m.fetch_latch, m.core})
    {
        m.oracle.ensure(1);
        const ExecRecord &rec = m.oracle.at(0);
        prod = windowInst(m.arena, 1, rec.pc);
        prod->inst = rec.inst;
        prod->fu = 0;
        m.oracle.consume(1);
        m.fetch_latch.lines.push_back(FetchLine{0, {prod}, false});
        dispatch.tick(1);
    }

    /**
     * Retire the producer at cycle 3 and hand its block to a new
     * instruction that never completes, so a read through a stale
     * pointer would see kNoCycle.
     */
    void
    retireProducerAndReuseItsBlock()
    {
        ASSERT_EQ(prod->completeCycle, 3u);
        const DynInst *const freed = prod;
        retire.tick(3);
        ASSERT_EQ(retire.retired(), 1u);
        m.extra.push_back(allocDynInst(m.arena));
        ASSERT_EQ(m.extra.back(), freed);
        prod = nullptr;
    }

    /**
     * Rename consumers of @p reg from an I-cache line at @p now: one
     * on fu 1 (the producer's cluster) and one on fu 4 (across).
     */
    std::pair<DynInst *, DynInst *>
    renameConsumers(RegIndex reg, InstSeqNum seq, Cycle now)
    {
        DynInst *nearc = windowInst(m.arena, seq);
        nearc->inst = aluInst(2, reg);
        nearc->fu = 1;
        DynInst *farc = windowInst(m.arena, seq + 1);
        farc->inst = aluInst(3, reg);
        farc->fu = 4;
        m.fetch_latch.lines.push_back(
            FetchLine{now - 1, {nearc, farc}, false});
        dispatch.tick(now);
        return {nearc, farc};
    }

    Program prog;   // the Executor reads it: declared before m
    StubMachine m;
    DispatchRename dispatch;
    RetireUnit retire;
    RecoveryController recovery;
    DynInst *prod = nullptr;
};

TEST_F(SealFixture, ConsumerRenamedAfterProducerRetiredReadsItsTiming)
{
    m.core.tick(2);
    retireProducerAndReuseItsBlock();
    // r1's entry was sealed when the producer retired.
    const Operand op = dispatch.renameTable().read(1);
    ASSERT_TRUE(op.sealed());
    EXPECT_EQ(op.cycle, 3u);
    EXPECT_EQ(op.fu, 0);

    auto [nearc, farc] = renameConsumers(1, 2, /*now=*/3);
    m.core.tick(4);
    EXPECT_EQ(nearc->startCycle, 4u);
    EXPECT_EQ(farc->startCycle, 4u);        // 3 + 1 across clusters
    EXPECT_FALSE(nearc->bypassDelayed);
    EXPECT_TRUE(farc->bypassDelayed);
}

TEST_F(SealFixture, MoveAliasReplaysAfterProducerRetired)
{
    // A trace line renamed at cycle 2: a marked move r7 <- r1, renamed
    // while the producer is still in flight, then a mispredicted
    // branch. One retire slot, so only the producer retires at 3.
    m.cfg.retireWidth = 1;
    DynInst *mv = windowInst(m.arena, 2);
    mv->inst = aluInst(7, 1);
    mv->moveMarked = true;
    mv->moveSrcReg = 1;
    mv->fu = 2;
    DynInst *br = windowInst(m.arena, 3);
    br->inst.op = Op::BGTZ;
    br->inst.src1 = 2;
    br->isBranch = true;
    br->mispredicted = true;
    br->redirectPc = 0x4444;
    br->fu = 3;
    m.fetch_latch.lines.push_back(FetchLine{1, {mv, br}, true});
    dispatch.tick(2);
    ASSERT_TRUE(mv->moveAlias.names(*prod));

    m.core.tick(2);                 // the producer's walk seals the alias
    retireProducerAndReuseItsBlock();
    ASSERT_EQ(m.window.insts.front(), mv);

    // The mispredict rebuilds the table from the window: r7 comes back
    // from the move's alias, which must be the sealed value.
    recovery.resolveBranch(*br, /*now=*/3);
    const Operand op = dispatch.renameTable().read(7);
    ASSERT_TRUE(op.sealed());
    EXPECT_EQ(op.cycle, 3u);
    EXPECT_EQ(op.fu, 0);

    auto [nearc, farc] = renameConsumers(7, 4, /*now=*/4);
    m.core.tick(5);
    EXPECT_EQ(nearc->startCycle, 5u);
    EXPECT_EQ(farc->startCycle, 5u);
    EXPECT_FALSE(nearc->bypassDelayed);
    EXPECT_TRUE(farc->bypassDelayed);
}

} // namespace
} // namespace tcfill
