/** @file Unit tests for the fill unit's segment construction rules. */

#include <gtest/gtest.h>

#include "fill/fill_unit.hh"

namespace tcfill
{
namespace
{

/** Harness: a fill unit wired to a private trace cache/bias table. */
struct FillHarness
{
    explicit FillHarness(FillUnitConfig cfg = {})
        : tcache(), bias(), fill(cfg, tcache, bias)
    {
    }

    /** Retire one synthetic instruction. */
    void
    retire(Instruction in, Addr pc, bool taken = false,
           Addr next = kNoAddr, bool miss_target = false)
    {
        ExecRecord rec;
        rec.seq = seq++;
        rec.pc = pc;
        rec.inst = in;
        rec.taken = taken;
        rec.nextPc = next != kNoAddr ? next : pc + 4;
        fill.retire(rec, cycle, miss_target);
        ++cycle;
    }

    void
    retireAlu(Addr pc)
    {
        Instruction in;
        in.op = Op::ADDI;
        in.dest = 3;
        in.src1 = 3;
        in.imm = 1;
        retire(in, pc);
    }

    void
    retireBranch(Addr pc, bool taken, Addr target)
    {
        Instruction in;
        in.op = Op::BNE;
        in.src1 = 3;
        in.src2 = 0;
        in.imm = static_cast<std::int32_t>(
            (static_cast<std::int64_t>(target) -
             static_cast<std::int64_t>(pc) - 4) / 4);
        retire(in, pc, taken, taken ? target : pc + 4);
    }

    /** Finish the pending segment and install everything. */
    void
    drain()
    {
        fill.flushPending(cycle);
        fill.tick(cycle + 1000);
    }

    TraceCache tcache;
    BiasTable bias;
    FillUnit fill;
    InstSeqNum seq = 0;
    Cycle cycle = 0;
};

TEST(FillUnit, SixteenInstructionLimit)
{
    FillHarness h;
    for (unsigned i = 0; i < 20; ++i)
        h.retireAlu(0x400000 + i * 4);
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 16u);
    // The remainder went into a second segment.
    EXPECT_TRUE(h.tcache.probe(0x400000 + 16 * 4));
}

TEST(FillUnit, ThreeConditionalBranchLimit)
{
    FillHarness h;
    // Alternate ALU and not-taken branches; the 4th branch must open
    // a new segment.
    Addr pc = 0x400000;
    for (unsigned b = 0; b < 4; ++b) {
        h.retireAlu(pc);
        pc += 4;
        h.retireBranch(pc, false, pc + 64);
        pc += 4;
    }
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 7u);     // up to and incl. the 3rd branch
    EXPECT_EQ(seg->predSlots.size(), 3u);
    EXPECT_EQ(seg->numBlocks, 4u);  // 2-bit block number bound holds
}

TEST(FillUnit, ReturnsTerminateSegments)
{
    FillHarness h;
    h.retireAlu(0x400000);
    Instruction jr;
    jr.op = Op::JR;
    jr.src1 = kRegRA;
    h.retire(jr, 0x400004, true, 0x400100);
    h.retireAlu(0x400100);
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 2u);     // ends *after* the return
    EXPECT_TRUE(h.tcache.probe(0x400100));
}

TEST(FillUnit, CallsDoNotTerminate)
{
    FillHarness h;
    h.retireAlu(0x400000);
    Instruction jal;
    jal.op = Op::JAL;
    jal.dest = kRegRA;
    jal.imm = static_cast<std::int32_t>(0x400100 / 4);
    h.retire(jal, 0x400004, true, 0x400100);
    h.retireAlu(0x400100);      // packs across the call boundary
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 3u);
}

TEST(FillUnit, SerializingInstructionsTerminate)
{
    FillHarness h;
    h.retireAlu(0x400000);
    Instruction sys;
    sys.op = Op::SYSCALL;
    h.retire(sys, 0x400004);
    h.retireAlu(0x400008);
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 2u);
}

TEST(FillUnit, MissTargetRestartsSegment)
{
    FillHarness h;
    h.retireAlu(0x400000);
    h.retireAlu(0x400004);
    // The next instruction was fetched from the I-cache after a trace
    // cache miss: the fill unit re-aligns to it.
    Instruction in;
    in.op = Op::ADDI;
    in.dest = 3;
    in.src1 = 3;
    in.imm = 1;
    h.retire(in, 0x400008, false, kNoAddr, /*miss_target=*/true);
    h.drain();
    const TraceSegment *first = h.tcache.lookup(0x400000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->size(), 2u);
    EXPECT_TRUE(h.tcache.probe(0x400008));
}

TEST(FillUnit, PromotedBranchesDoNotConsumeSlots)
{
    FillUnitConfig cfg;
    BiasTable::Params bias_params;
    FillHarness h(cfg);
    // Pre-bias a branch to promotion threshold.
    Addr bpc = 0x400004;
    for (int i = 0; i < 64; ++i)
        h.bias.observe(bpc, true);
    ASSERT_TRUE(h.bias.isPromoted(bpc));

    h.retireAlu(0x400000);
    h.retireBranch(bpc, true, 0x400100);        // promoted
    h.retireAlu(0x400100);
    for (unsigned b = 0; b < 3; ++b) {
        h.retireBranch(0x400104 + b * 8, false, 0x400200);
        h.retireAlu(0x400108 + b * 8);
    }
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    // Promoted branch embedded; three predicted slots still free.
    EXPECT_TRUE(seg->insts[1].promoted);
    EXPECT_TRUE(seg->insts[1].promotedDir);
    EXPECT_EQ(seg->predSlots.size(), 3u);
    EXPECT_EQ(seg->size(), 9u);     // 4 branches total fit
}

TEST(FillUnit, FillLatencyDelaysInstall)
{
    FillUnitConfig cfg;
    cfg.latency = 10;
    FillHarness h(cfg);
    for (unsigned i = 0; i < 16; ++i)
        h.retireAlu(0x400000 + i * 4);
    // Finalized at retire cycle ~15; not yet visible at cycle 20.
    h.fill.tick(16);
    EXPECT_FALSE(h.tcache.probe(0x400000));
    h.fill.tick(15 + 10);
    EXPECT_TRUE(h.tcache.probe(0x400000));
}

TEST(FillUnit, OptimizationCountersAccumulate)
{
    FillUnitConfig cfg;
    cfg.opts = FillOptimizations::all();
    FillHarness h(cfg);
    Instruction mv;
    mv.op = Op::ADDI;
    mv.dest = 4;
    mv.src1 = 7;
    mv.imm = 0;
    h.retire(mv, 0x400000);
    h.retireAlu(0x400004);
    h.drain();
    EXPECT_EQ(h.fill.movesMarked(), 1u);
    EXPECT_EQ(h.fill.segmentsBuilt(), 1u);
    EXPECT_EQ(h.fill.instsCollected(), 2u);
    EXPECT_DOUBLE_EQ(h.fill.avgSegmentLength(), 2.0);
}

TEST(FillUnit, NextPcRecordsPathContinuation)
{
    FillHarness h;
    h.retireAlu(0x400000);
    h.retireBranch(0x400004, true, 0x400080);
    h.retireAlu(0x400080);
    h.drain();
    const TraceSegment *seg = h.tcache.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 3u);
    EXPECT_EQ(seg->nextPc, 0x400084u);
    EXPECT_TRUE(seg->insts[1].taken);
    EXPECT_EQ(seg->insts[1].condTarget(), 0x400080u);
}

} // namespace
} // namespace tcfill
