/** @file Unit tests for rename state and the execution core. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "mem/cache.hh"
#include "uarch/exec_core.hh"
#include "uarch/rename.hh"

namespace tcfill
{
namespace
{

/**
 * Owns the instructions a test builds, as the window does in the
 * Processor: frees each one before the arena checks that every block
 * came back.
 */
struct InstPool
{
    InstPool() = default;
    InstPool(const InstPool &) = delete;
    InstPool &operator=(const InstPool &) = delete;

    ~InstPool()
    {
        for (DynInst *di : owned)
            freeDynInst(arena, di);
    }

    /** Free @p di now, as its window slot popping at retire would. */
    void
    release(DynInst *di)
    {
        owned.erase(std::find(owned.begin(), owned.end(), di));
        freeDynInst(arena, di);
    }

    SlabArena arena;
    std::vector<DynInst *> owned;
};

DynInst *
makeInst(InstPool &pool, InstSeqNum seq, Op op = Op::ADD, int fu = 0)
{
    DynInst *di = allocDynInst(pool.arena);
    pool.owned.push_back(di);
    di->seq = seq;
    di->inst.op = op;
    di->inst.dest = 3;
    di->inst.src1 = 1;
    di->inst.src2 = 2;
    di->latency = opInfo(op).latency;
    di->fu = fu;
    di->numSrcs = 2;
    di->issueCycle = 0;
    return di;
}

// ---- rename table -------------------------------------------------------

TEST(Rename, ReadsAreReadyByDefault)
{
    RenameTable rt;
    Operand op = rt.read(5);
    EXPECT_TRUE(op.sealed());
    EXPECT_EQ(op.cycle, 0u);
    EXPECT_EQ(op.fu, -1);       // register file: no bypass
}

TEST(Rename, WriteAndRead)
{
    InstPool pool;
    RenameTable rt;
    DynInst *p = makeInst(pool, 1);
    rt.write(5, *p);
    EXPECT_TRUE(rt.read(5).names(*p));
    // R0 is never mapped.
    rt.write(0, *p);
    EXPECT_TRUE(rt.read(0).sealed());
}

TEST(Rename, AliasForMoves)
{
    InstPool pool;
    RenameTable rt;
    DynInst *p = makeInst(pool, 1);
    rt.write(5, *p);
    EXPECT_FALSE(p->aliasMapped);
    rt.alias(7, rt.read(5));
    EXPECT_TRUE(rt.read(7).names(*p));
    EXPECT_TRUE(p->aliasMapped);    // its retire scans every entry
}

TEST(Rename, RebuildReplaysSurvivors)
{
    InstPool pool;
    RenameTable rt;
    DynInst *a = makeInst(pool, 1);
    a->inst.dest = 5;
    DynInst *b = makeInst(pool, 2);
    b->inst.dest = 5;
    b->phase = InstPhase::Squashed;
    DynInst *c = makeInst(pool, 3);
    c->inst.dest = 6;
    c->inactive = true;             // unresolved inactive: skipped
    const std::deque<DynInst *> window = {a, b, c};
    rt.rebuild(window);
    EXPECT_TRUE(rt.read(5).names(*a));      // b was squashed
    EXPECT_TRUE(rt.read(6).sealed());       // c is inactive
}

TEST(Rename, RebuildHonorsMoveAliases)
{
    InstPool pool;
    RenameTable rt;
    DynInst *p = makeInst(pool, 1);
    p->inst.dest = 5;
    DynInst *mv = makeInst(pool, 2);
    mv->inst.dest = 7;
    mv->moveMarked = true;
    mv->moveAlias = Operand::of(*p);
    const std::deque<DynInst *> window = {p, mv};
    rt.rebuild(window);
    EXPECT_TRUE(rt.read(7).names(*p));
}

TEST(Rename, RetireSealsEveryEntryNamingTheProducer)
{
    InstPool pool;
    RenameTable rt;
    DynInst *p = makeInst(pool, 1, Op::ADD, 6);
    p->inst.dest = 5;
    p->completeCycle = 40;
    DynInst *q = makeInst(pool, 2);
    q->inst.dest = 9;
    rt.write(5, *p);
    rt.write(9, *q);
    rt.alias(7, rt.read(5));        // a move copied p into r7
    rt.sealRetired(*p);
    for (RegIndex r : {RegIndex(5), RegIndex(7)}) {
        const Operand op = rt.read(r);
        ASSERT_TRUE(op.sealed()) << "r" << unsigned(r);
        EXPECT_EQ(op.cycle, 40u);
        EXPECT_EQ(op.fu, 6);
    }
    EXPECT_TRUE(rt.read(9).names(*q));      // another producer's entry
}

// ---- execution core ----------------------------------------------------

struct CoreHarness
{
    CoreHarness() : mem(), core(ExecCoreParams{}, mem)
    {
        core.setCompleteHook(&CoreHarness::onComplete, this);
    }

    static void
    onComplete(void *ctx, DynInst &di)
    {
        static_cast<CoreHarness *>(ctx)->completed.push_back(di.seq);
    }

    void tick(Cycle now) { core.tick(now); }

    // Declared first so it is destroyed last, as in the Processor.
    InstPool pool;
    std::vector<InstSeqNum> completed;

    MemoryHierarchy mem;
    ExecCore core;
};

class ExecCoreTest : public ::testing::Test
{
  protected:
    CoreHarness h;
};

TEST_F(ExecCoreTest, Geometry)
{
    EXPECT_EQ(h.core.numFus(), 16u);
    EXPECT_EQ(h.core.rsFree(0), 32u);
}

TEST_F(ExecCoreTest, ScheduleStageDelaysExecution)
{
    DynInst *di = makeInst(h.pool, 1);
    di->issueCycle = 5;
    h.core.dispatch(*di);
    h.tick(5);      // same cycle as issue: not eligible
    EXPECT_TRUE(h.completed.empty());
    h.tick(6);      // schedule stage has passed
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_EQ(di->startCycle, 6u);
    EXPECT_EQ(di->completeCycle, 7u);
}

TEST_F(ExecCoreTest, WaitsForProducer)
{
    DynInst *prod = makeInst(h.pool, 1, Op::MUL, 0);
    DynInst *cons = makeInst(h.pool, 2, Op::ADD, 1);
    cons->src[0] = Operand::of(*prod);
    h.core.dispatch(*prod);
    h.core.dispatch(*cons);
    h.tick(1);      // prod starts; completes at 1+3=4
    EXPECT_EQ(prod->startCycle, 1u);
    h.tick(2);
    h.tick(3);
    EXPECT_EQ(cons->startCycle, kNoCycle);
    h.tick(4);      // same cluster: result available at 4
    EXPECT_EQ(cons->startCycle, 4u);
}

TEST_F(ExecCoreTest, CrossClusterBypassCostsACycle)
{
    DynInst *prod = makeInst(h.pool, 1, Op::ADD, 0);      // cluster 0
    DynInst *cons = makeInst(h.pool, 2, Op::ADD, 4);      // cluster 1
    cons->src[0] = Operand::of(*prod);
    h.core.dispatch(*prod);
    h.core.dispatch(*cons);
    h.tick(1);      // prod executes, completes at 2
    h.tick(2);      // value not yet across the cluster boundary
    EXPECT_EQ(cons->startCycle, kNoCycle);
    h.tick(3);
    EXPECT_EQ(cons->startCycle, 3u);
    EXPECT_TRUE(cons->bypassDelayed);
}

TEST_F(ExecCoreTest, SameClusterBackToBack)
{
    DynInst *prod = makeInst(h.pool, 1, Op::ADD, 0);
    DynInst *cons = makeInst(h.pool, 2, Op::ADD, 1);      // same cluster
    cons->src[0] = Operand::of(*prod);
    h.core.dispatch(*prod);
    h.core.dispatch(*cons);
    h.tick(1);
    h.tick(2);
    EXPECT_EQ(cons->startCycle, 2u);
    EXPECT_FALSE(cons->bypassDelayed);
}

TEST_F(ExecCoreTest, OldestFirstSelection)
{
    DynInst *young = makeInst(h.pool, 10, Op::ADD, 0);
    DynInst *old = makeInst(h.pool, 5, Op::ADD, 0);
    h.core.dispatch(*young);
    h.core.dispatch(*old);
    h.tick(1);
    EXPECT_EQ(old->startCycle, 1u);
    EXPECT_EQ(young->startCycle, kNoCycle);     // FU busy
    h.tick(2);
    EXPECT_EQ(young->startCycle, 2u);
}

TEST_F(ExecCoreTest, DivideIsUnpipelined)
{
    DynInst *div = makeInst(h.pool, 1, Op::DIV, 0);
    DynInst *next = makeInst(h.pool, 2, Op::ADD, 0);
    h.core.dispatch(*div);
    h.core.dispatch(*next);
    h.tick(1);
    EXPECT_EQ(div->completeCycle, 1u + 12);
    for (Cycle c = 2; c <= 12; ++c)
        h.tick(c);
    EXPECT_EQ(next->startCycle, kNoCycle);      // FU still busy
    h.tick(13);
    EXPECT_EQ(next->startCycle, 13u);
}

TEST_F(ExecCoreTest, StoreAddrKnownThenDataCompletes)
{
    DynInst *data = makeInst(h.pool, 1, Op::MUL, 0);
    DynInst *st = makeInst(h.pool, 2, Op::SW, 1);
    st->isStore = true;
    st->onCorrectPath = true;
    st->effAddr = 0x1000;
    st->numSrcs = 2;
    st->dataOperand = 1;
    st->src[1] = Operand::of(*data);    // store data still in flight
    h.core.dispatch(*data);
    h.core.dispatch(*st);
    h.tick(1);      // both select: store AGENs without its data
    EXPECT_EQ(st->addrKnown, 2u);
    // The MUL's completion time became known the same cycle, so the
    // store's completion resolves immediately to max(addr, data).
    EXPECT_EQ(st->phase, InstPhase::Complete);
    EXPECT_EQ(st->completeCycle, 4u);
}

TEST_F(ExecCoreTest, LoadBlockedByUnknownStoreAddress)
{
    DynInst *base = makeInst(h.pool, 1, Op::MUL, 0);  // store address chain
    DynInst *st = makeInst(h.pool, 2, Op::SW, 1);
    st->isStore = true;
    st->onCorrectPath = true;
    st->effAddr = 0x2000;
    st->numSrcs = 2;
    st->dataOperand = 1;
    st->src[0] = Operand::of(*base);    // address unknown until MUL done
    DynInst *ld = makeInst(h.pool, 3, Op::LW, 2);
    ld->isLoad = true;
    ld->onCorrectPath = true;
    ld->effAddr = 0x3000;           // disjoint address, still blocked
    h.core.dispatch(*base);
    h.core.dispatch(*st);
    h.core.dispatch(*ld);
    h.tick(1);
    EXPECT_EQ(ld->startCycle, kNoCycle);    // no bypassing unknowns
    h.tick(2);
    h.tick(3);
    h.tick(4);      // base done at 4 -> store AGEN at 4
    h.tick(5);      // addrKnown = 5
    EXPECT_EQ(ld->startCycle, 5u);
}

TEST_F(ExecCoreTest, StoreToLoadForwarding)
{
    DynInst *st = makeInst(h.pool, 1, Op::SW, 0);
    st->isStore = true;
    st->onCorrectPath = true;
    st->effAddr = 0x4000;
    st->numSrcs = 2;
    st->dataOperand = 1;
    DynInst *ld = makeInst(h.pool, 2, Op::LW, 1);
    ld->isLoad = true;
    ld->onCorrectPath = true;
    ld->effAddr = 0x4000;           // same word
    h.core.dispatch(*st);
    h.core.dispatch(*ld);
    h.tick(1);
    h.tick(2);
    h.tick(3);
    // Forwarded: complete = max(agen, store data) + 1, no cache trip.
    EXPECT_NE(ld->startCycle, kNoCycle);
    EXPECT_EQ(ld->completeCycle, std::max(ld->startCycle + 1,
                                          st->completeCycle) + 1);
}

TEST_F(ExecCoreTest, SquashRangeRemovesFromStations)
{
    DynInst *a = makeInst(h.pool, 1, Op::ADD, 0);
    DynInst *b = makeInst(h.pool, 2, Op::ADD, 1);
    DynInst *c = makeInst(h.pool, 3, Op::ADD, 2);
    // Make them un-ready so they stay in the stations.
    DynInst *never = makeInst(h.pool, 99, Op::ADD, 15);
    never->issueCycle = kNoCycle;
    for (DynInst *di : {a, b, c})
        di->src[0] = Operand::of(*never);
    h.core.dispatch(*a);
    h.core.dispatch(*b);
    h.core.dispatch(*c);
    h.core.squash(*b);              // the window walk: b squashed, c rescued
    h.core.purgeSquashed();
    EXPECT_TRUE(b->squashed());
    EXPECT_FALSE(a->squashed());
    EXPECT_FALSE(c->squashed());
    EXPECT_EQ(h.core.occupancy(), 2u);
}

TEST_F(ExecCoreTest, WrongPathLoadsSkipCaches)
{
    DynInst *ld = makeInst(h.pool, 1, Op::LW, 0);
    ld->isLoad = true;
    ld->onCorrectPath = false;      // wrong path: fixed fake latency
    h.core.dispatch(*ld);
    h.tick(1);
    EXPECT_EQ(ld->completeCycle, 3u);
    EXPECT_EQ(h.mem.l1d().hits() + h.mem.l1d().misses(), 0u);
}

TEST_F(ExecCoreTest, StoreDataOperandIsSealedBeforeItsProducerRetires)
{
    // Stores on cluster 0 whose data comes from cluster 1. Each data
    // producer retires (its block is freed and handed out again)
    // before its store reads the data operand, so the store must read
    // the sealed {completion cycle, FU}, never the block.
    auto store = [this](InstSeqNum seq, int fu, Addr addr) {
        DynInst *st = makeInst(h.pool, seq, Op::SW, fu);
        st->isStore = true;
        st->onCorrectPath = true;
        st->effAddr = addr;
        st->dataOperand = 1;
        return st;
    };

    // Producer still executing at the store's select: its wake-list
    // walk seals the data operand.
    DynInst *late = makeInst(h.pool, 1, Op::ADD, 4);
    DynInst *st1 = store(2, 0, 0x5000);
    st1->src[1] = Operand::of(*late);
    h.core.dispatch(*late);
    h.core.dispatch(*st1);
    // Cycle 1: fu 0 selects the store first, so it AGENs with its data
    // unknown and waits; then fu 4 runs the producer (complete at 2).
    h.tick(1);
    EXPECT_EQ(st1->phase, InstPhase::Executing);
    EXPECT_EQ(late->completeCycle, 2u);
    const DynInst *freed = late;
    h.pool.release(late);           // retires at cycle 2
    ASSERT_EQ(makeInst(h.pool, 90, Op::ADD, 9), freed);     // reused
    h.tick(2);                      // finalize reads the data operand
    EXPECT_EQ(st1->phase, InstPhase::Complete);
    EXPECT_EQ(st1->completeCycle, 3u);      // 2 + 1 across clusters

    // Producer already complete when the store dispatches: subscribe
    // seals the data operand at once.
    DynInst *early = makeInst(h.pool, 3, Op::ADD, 5);
    h.core.dispatch(*early);
    h.tick(3);                      // complete at 4
    DynInst *st2 = store(4, 1, 0x5004);
    st2->issueCycle = 4;
    st2->src[1] = Operand::of(*early);
    h.core.dispatch(*st2);
    freed = early;
    h.pool.release(early);          // retires at cycle 4
    ASSERT_EQ(makeInst(h.pool, 91, Op::ADD, 9), freed);
    h.tick(4);
    h.tick(5);                      // the store starts at 5
    EXPECT_EQ(st2->phase, InstPhase::Complete);
    EXPECT_EQ(st2->completeCycle, 6u);      // max(AGEN 6, data 4 + 1)
}

TEST(ExecCoreDeath, DispatchWithoutFuPanics)
{
    CoreHarness h;
    DynInst *di = makeInst(h.pool, 1);
    di->fu = -1;
    EXPECT_DEATH(h.core.dispatch(*di), "no FU");
}

} // namespace
} // namespace tcfill
