/** @file Unit tests for rename state and the execution core. */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "uarch/exec_core.hh"
#include "uarch/rename.hh"

namespace tcfill
{
namespace
{

DynInstPtr
makeInst(SlabArena &arena, InstSeqNum seq, Op op = Op::ADD, int fu = 0)
{
    DynInstPtr di = allocDynInst(arena);
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
    EXPECT_EQ(op.producer, nullptr);
    EXPECT_EQ(op.rfAvail, 0u);
}

TEST(Rename, WriteAndRead)
{
    SlabArena arena;
    RenameTable rt;
    DynInstPtr p = makeInst(arena, 1);
    rt.write(5, p);
    EXPECT_EQ(rt.read(5).producer, p);
    // R0 is never mapped.
    rt.write(0, p);
    EXPECT_EQ(rt.read(0).producer, nullptr);
}

TEST(Rename, AliasForMoves)
{
    SlabArena arena;
    RenameTable rt;
    DynInstPtr p = makeInst(arena, 1);
    rt.write(5, p);
    rt.alias(7, rt.read(5));
    EXPECT_EQ(rt.read(7).producer, p);
}

TEST(Rename, RebuildReplaysSurvivors)
{
    SlabArena arena;
    RenameTable rt;
    std::deque<DynInstPtr> window;
    DynInstPtr a = makeInst(arena, 1);
    a->inst.dest = 5;
    DynInstPtr b = makeInst(arena, 2);
    b->inst.dest = 5;
    b->phase = InstPhase::Squashed;
    DynInstPtr c = makeInst(arena, 3);
    c->inst.dest = 6;
    c->inactive = true;             // unresolved inactive: skipped
    window = {a, b, c};
    rt.rebuild(window);
    EXPECT_EQ(rt.read(5).producer, a);      // b was squashed
    EXPECT_EQ(rt.read(6).producer, nullptr); // c is inactive
}

TEST(Rename, RebuildHonorsMoveAliases)
{
    SlabArena arena;
    RenameTable rt;
    std::deque<DynInstPtr> window;
    DynInstPtr p = makeInst(arena, 1);
    p->inst.dest = 5;
    DynInstPtr mv = makeInst(arena, 2);
    mv->inst.dest = 7;
    mv->moveMarked = true;
    mv->moveAlias = Operand{p, 0};
    window = {p, mv};
    rt.rebuild(window);
    EXPECT_EQ(rt.read(7).producer, p);
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
        static_cast<CoreHarness *>(ctx)->completed.push_back(
            DynInstPtr(&di));
    }

    void tick(Cycle now) { core.tick(now); }

    // Declared first so it is destroyed last, as in the Processor.
    SlabArena arena;
    std::vector<DynInstPtr> completed;

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
    DynInstPtr di = makeInst(h.arena, 1);
    di->issueCycle = 5;
    h.core.dispatch(di);
    h.tick(5);      // same cycle as issue: not eligible
    EXPECT_TRUE(h.completed.empty());
    h.tick(6);      // schedule stage has passed
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_EQ(di->startCycle, 6u);
    EXPECT_EQ(di->completeCycle, 7u);
}

TEST_F(ExecCoreTest, WaitsForProducer)
{
    DynInstPtr prod = makeInst(h.arena, 1, Op::MUL, 0);
    DynInstPtr cons = makeInst(h.arena, 2, Op::ADD, 1);
    cons->src[0].producer = prod;
    h.core.dispatch(prod);
    h.core.dispatch(cons);
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
    DynInstPtr prod = makeInst(h.arena, 1, Op::ADD, 0);      // cluster 0
    DynInstPtr cons = makeInst(h.arena, 2, Op::ADD, 4);      // cluster 1
    cons->src[0].producer = prod;
    h.core.dispatch(prod);
    h.core.dispatch(cons);
    h.tick(1);      // prod executes, completes at 2
    h.tick(2);      // value not yet across the cluster boundary
    EXPECT_EQ(cons->startCycle, kNoCycle);
    h.tick(3);
    EXPECT_EQ(cons->startCycle, 3u);
    EXPECT_TRUE(cons->bypassDelayed);
}

TEST_F(ExecCoreTest, SameClusterBackToBack)
{
    DynInstPtr prod = makeInst(h.arena, 1, Op::ADD, 0);
    DynInstPtr cons = makeInst(h.arena, 2, Op::ADD, 1);      // same cluster
    cons->src[0].producer = prod;
    h.core.dispatch(prod);
    h.core.dispatch(cons);
    h.tick(1);
    h.tick(2);
    EXPECT_EQ(cons->startCycle, 2u);
    EXPECT_FALSE(cons->bypassDelayed);
}

TEST_F(ExecCoreTest, OldestFirstSelection)
{
    DynInstPtr young = makeInst(h.arena, 10, Op::ADD, 0);
    DynInstPtr old = makeInst(h.arena, 5, Op::ADD, 0);
    h.core.dispatch(young);
    h.core.dispatch(old);
    h.tick(1);
    EXPECT_EQ(old->startCycle, 1u);
    EXPECT_EQ(young->startCycle, kNoCycle);     // FU busy
    h.tick(2);
    EXPECT_EQ(young->startCycle, 2u);
}

TEST_F(ExecCoreTest, DivideIsUnpipelined)
{
    DynInstPtr div = makeInst(h.arena, 1, Op::DIV, 0);
    DynInstPtr next = makeInst(h.arena, 2, Op::ADD, 0);
    h.core.dispatch(div);
    h.core.dispatch(next);
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
    DynInstPtr data = makeInst(h.arena, 1, Op::MUL, 0);
    DynInstPtr st = makeInst(h.arena, 2, Op::SW, 1);
    st->isStore = true;
    st->onCorrectPath = true;
    st->effAddr = 0x1000;
    st->numSrcs = 2;
    st->dataOperand = 1;
    st->src[1].producer = data;     // store data still in flight
    h.core.dispatch(data);
    h.core.dispatch(st);
    h.tick(1);      // both select: store AGENs without its data
    EXPECT_EQ(st->addrKnown, 2u);
    // The MUL's completion time became known the same cycle, so the
    // store's completion resolves immediately to max(addr, data).
    EXPECT_EQ(st->phase, InstPhase::Complete);
    EXPECT_EQ(st->completeCycle, 4u);
}

TEST_F(ExecCoreTest, LoadBlockedByUnknownStoreAddress)
{
    DynInstPtr base = makeInst(h.arena, 1, Op::MUL, 0);  // store address chain
    DynInstPtr st = makeInst(h.arena, 2, Op::SW, 1);
    st->isStore = true;
    st->onCorrectPath = true;
    st->effAddr = 0x2000;
    st->numSrcs = 2;
    st->dataOperand = 1;
    st->src[0].producer = base;     // address unknown until MUL done
    DynInstPtr ld = makeInst(h.arena, 3, Op::LW, 2);
    ld->isLoad = true;
    ld->onCorrectPath = true;
    ld->effAddr = 0x3000;           // disjoint address, still blocked
    h.core.dispatch(base);
    h.core.dispatch(st);
    h.core.dispatch(ld);
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
    DynInstPtr st = makeInst(h.arena, 1, Op::SW, 0);
    st->isStore = true;
    st->onCorrectPath = true;
    st->effAddr = 0x4000;
    st->numSrcs = 2;
    st->dataOperand = 1;
    DynInstPtr ld = makeInst(h.arena, 2, Op::LW, 1);
    ld->isLoad = true;
    ld->onCorrectPath = true;
    ld->effAddr = 0x4000;           // same word
    h.core.dispatch(st);
    h.core.dispatch(ld);
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
    DynInstPtr a = makeInst(h.arena, 1, Op::ADD, 0);
    DynInstPtr b = makeInst(h.arena, 2, Op::ADD, 1);
    DynInstPtr c = makeInst(h.arena, 3, Op::ADD, 2);
    // Make them un-ready so they stay in the stations.
    DynInstPtr never = makeInst(h.arena, 99, Op::ADD, 15);
    never->issueCycle = kNoCycle;
    for (auto &di : {a, b, c})
        di->src[0].producer = never;
    h.core.dispatch(a);
    h.core.dispatch(b);
    h.core.dispatch(c);
    h.core.squashRange(2, ~InstSeqNum(0), 3, 4);    // squash b, rescue c
    EXPECT_TRUE(b->squashed());
    EXPECT_FALSE(a->squashed());
    EXPECT_FALSE(c->squashed());
    EXPECT_EQ(h.core.occupancy(), 2u);
}

TEST_F(ExecCoreTest, WrongPathLoadsSkipCaches)
{
    DynInstPtr ld = makeInst(h.arena, 1, Op::LW, 0);
    ld->isLoad = true;
    ld->onCorrectPath = false;      // wrong path: fixed fake latency
    h.core.dispatch(ld);
    h.tick(1);
    EXPECT_EQ(ld->completeCycle, 3u);
    EXPECT_EQ(h.mem.l1d().hits() + h.mem.l1d().misses(), 0u);
}

TEST(ExecCoreDeath, DispatchWithoutFuPanics)
{
    CoreHarness h;
    DynInstPtr di = makeInst(h.arena, 1);
    di->fu = -1;
    EXPECT_DEATH(h.core.dispatch(di), "no FU");
}

} // namespace
} // namespace tcfill
