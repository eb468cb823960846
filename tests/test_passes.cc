/** @file
 * Unit and property tests for the fill unit's optimization passes:
 * dependency marking, register-move marking, reassociation, scaled
 * adds and instruction placement (paper §4), and the order in which
 * runPasses() applies them.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "fill/passes.hh"
#include "tests/segment_eval.hh"

namespace tcfill
{
namespace
{

/** Append an instruction to a segment with synthetic PC/region. */
TraceInst &
append(TraceSegment &seg, Instruction in, unsigned cf_region = 0)
{
    TraceInst ti;
    ti.inst = in;
    ti.pc = 0x400000 + seg.size() * 4;
    ti.origIdx = static_cast<std::uint8_t>(seg.size());
    ti.slot = ti.origIdx;
    ti.cfRegion = static_cast<std::uint8_t>(cf_region);
    ti.blockNum = static_cast<std::uint8_t>(cf_region & 3);
    seg.insts.push_back(ti);
    return seg.insts.back();
}

Instruction
addi(RegIndex rt, RegIndex rs, std::int32_t imm)
{
    Instruction in;
    in.op = Op::ADDI;
    in.dest = rt;
    in.src1 = rs;
    in.imm = imm;
    return in;
}

Instruction
add(RegIndex rd, RegIndex rs, RegIndex rt)
{
    Instruction in;
    in.op = Op::ADD;
    in.dest = rd;
    in.src1 = rs;
    in.src2 = rt;
    return in;
}

Instruction
slli(RegIndex rd, RegIndex rs, unsigned sh)
{
    Instruction in;
    in.op = Op::SLLI;
    in.dest = rd;
    in.src1 = rs;
    in.shamt = static_cast<std::uint8_t>(sh);
    return in;
}

Instruction
lw(RegIndex rt, RegIndex base, std::int32_t disp)
{
    Instruction in;
    in.op = Op::LW;
    in.dest = rt;
    in.src1 = base;
    in.imm = disp;
    return in;
}

// ---- dependency marking ------------------------------------------------

TEST(DepMark, InternalAndLiveIn)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 4));         // 0: r3 <- r1 (live-in)
    append(seg, addi(4, 3, 4));         // 1: r4 <- r3 (inst 0)
    append(seg, add(5, 4, 9));          // 2: r5 <- r4 (1), r9 live-in
    markDependencies(seg);
    EXPECT_EQ(seg.insts[0].srcDep[0], kDepLiveIn);
    EXPECT_EQ(seg.insts[1].srcDep[0], 0);
    EXPECT_EQ(seg.insts[2].srcDep[0], 1);
    EXPECT_EQ(seg.insts[2].srcDep[1], kDepLiveIn);
    EXPECT_TRUE(depsConsistent(seg));
}

TEST(DepMark, R0NeverDepends)
{
    TraceSegment seg;
    append(seg, addi(0, 1, 4));         // write to r0: no real dest
    append(seg, add(2, 0, 1));          // r0 source: live-in sentinel
    markDependencies(seg);
    EXPECT_EQ(seg.insts[1].srcDep[0], kDepLiveIn);
}

TEST(DepMark, LiveOutTracksOverwrites)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1));
    append(seg, addi(3, 3, 1));     // overwrites r3
    append(seg, addi(4, 3, 1));
    markDependencies(seg);
    EXPECT_FALSE(seg.insts[0].liveOut);
    EXPECT_TRUE(seg.insts[1].liveOut);
    EXPECT_TRUE(seg.insts[2].liveOut);
}

TEST(DepMark, StoreDataDependency)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1));
    Instruction sw;
    sw.op = Op::SW;
    sw.src1 = 2;
    sw.src3 = 3;
    sw.imm = 0;
    append(seg, sw);
    markDependencies(seg);
    EXPECT_EQ(seg.insts[1].srcDep[0], kDepLiveIn);  // base r2
    EXPECT_EQ(seg.insts[1].srcDep[1], 0);           // data r3
}

// ---- register-move marking -----------------------------------------

TEST(Moves, MarksAndRewiresConsumer)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 5));     // 0: real producer
    append(seg, addi(4, 3, 0));     // 1: move r4 <- r3
    append(seg, add(5, 4, 4));      // 2: consumes the move twice
    markDependencies(seg);
    EXPECT_EQ(markMoves(seg), 1u);

    EXPECT_TRUE(seg.insts[1].isMove);
    EXPECT_EQ(seg.insts[1].moveSrc, 3);
    EXPECT_EQ(seg.insts[1].moveSrcDep, 0);
    // Consumer now reads r3 straight from instruction 0.
    EXPECT_EQ(seg.insts[2].inst.src1, 3);
    EXPECT_EQ(seg.insts[2].inst.src2, 3);
    EXPECT_EQ(seg.insts[2].srcDep[0], 0);
    EXPECT_EQ(seg.insts[2].srcDep[1], 0);
    EXPECT_TRUE(depsConsistent(seg));
}

TEST(Moves, ChainedMovesCollapse)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 5));     // 0
    append(seg, addi(4, 3, 0));     // 1: mv r4 <- r3
    append(seg, addi(5, 4, 0));     // 2: mv r5 <- r4
    append(seg, addi(6, 5, 1));     // 3: consumer
    markDependencies(seg);
    EXPECT_EQ(markMoves(seg), 2u);
    // The second move aliases past the first.
    EXPECT_EQ(seg.insts[2].moveSrc, 3);
    EXPECT_EQ(seg.insts[2].moveSrcDep, 0);
    // The consumer points at the real producer.
    EXPECT_EQ(seg.insts[3].inst.src1, 3);
    EXPECT_EQ(seg.insts[3].srcDep[0], 0);
}

TEST(Moves, LiveInMoveSource)
{
    TraceSegment seg;
    append(seg, addi(4, 7, 0));     // mv r4 <- r7 (live-in)
    append(seg, addi(5, 4, 2));
    markDependencies(seg);
    markMoves(seg);
    EXPECT_EQ(seg.insts[0].moveSrcDep, kDepLiveIn);
    EXPECT_EQ(seg.insts[1].inst.src1, 7);
    EXPECT_EQ(seg.insts[1].srcDep[0], kDepLiveIn);
}

TEST(Moves, ZeroIdiomAliasesToR0)
{
    TraceSegment seg;
    append(seg, addi(4, 0, 0));     // r4 <- 0
    append(seg, add(5, 4, 1));
    markDependencies(seg);
    // Rewiring turns the consumer into `add r5, r0, r1` — itself a
    // move idiom, so the pass cascades and marks both.
    EXPECT_EQ(markMoves(seg), 2u);
    EXPECT_EQ(seg.insts[0].moveSrc, kRegZero);
    EXPECT_EQ(seg.insts[1].inst.src1, kRegZero);
    EXPECT_TRUE(seg.insts[1].isMove);
    EXPECT_EQ(seg.insts[1].moveSrc, 1);
    EXPECT_EQ(seg.insts[1].moveSrcDep, kDepLiveIn);
}

TEST(Moves, MoveSourceRedefinedBetween)
{
    // mv r4 <- r3; r3 redefined; consumer of r4 must still see the
    // *old* r3 value: the dep index pins the dataflow.
    TraceSegment seg;
    append(seg, addi(3, 1, 5));     // 0
    append(seg, addi(4, 3, 0));     // 1: mv
    append(seg, addi(3, 2, 9));     // 2: r3 redefined
    append(seg, addi(6, 4, 1));     // 3: consumer of the move
    markDependencies(seg);
    markMoves(seg);
    EXPECT_EQ(seg.insts[3].inst.src1, 3);
    EXPECT_EQ(seg.insts[3].srcDep[0], 0);   // inst 0, not inst 2
}

// ---- reassociation -----------------------------------------------------

TEST(Reassoc, CombinesCrossRegionPair)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 4), 0);
    append(seg, addi(5, 3, 4), 1);      // different cf region
    markDependencies(seg);
    EXPECT_EQ(reassociate(seg), 1u);
    EXPECT_EQ(seg.insts[1].inst.src1, 1);
    EXPECT_EQ(seg.insts[1].inst.imm, 8);
    EXPECT_EQ(seg.insts[1].srcDep[0], kDepLiveIn);
    EXPECT_TRUE(seg.insts[1].reassociated);
    EXPECT_TRUE(depsConsistent(seg));
}

TEST(Reassoc, SameRegionBlockedByDefault)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 4), 0);
    append(seg, addi(5, 3, 4), 0);      // same region
    markDependencies(seg);
    EXPECT_EQ(reassociate(seg), 0u);

    ReassocOptions opts;
    opts.crossBlockOnly = false;
    EXPECT_EQ(reassociate(seg, opts), 1u);
}

TEST(Reassoc, TransitiveChainFolds)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 4), 0);
    append(seg, addi(4, 3, 4), 1);
    append(seg, addi(5, 4, 4), 2);
    markDependencies(seg);
    EXPECT_EQ(reassociate(seg), 2u);
    // The last one accumulates the whole chain.
    EXPECT_EQ(seg.insts[2].inst.src1, 1);
    EXPECT_EQ(seg.insts[2].inst.imm, 12);
}

TEST(Reassoc, RejectsImmediateOverflow)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 30000), 0);
    append(seg, addi(5, 3, 30000), 1);  // sum 60000 > 32767
    markDependencies(seg);
    EXPECT_EQ(reassociate(seg), 0u);
    EXPECT_EQ(seg.insts[1].inst.imm, 30000);
}

TEST(Reassoc, FoldsIntoLoadDisplacement)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 16), 0);
    append(seg, lw(5, 3, 8), 1);
    markDependencies(seg);
    EXPECT_EQ(reassociate(seg), 1u);
    EXPECT_EQ(seg.insts[1].inst.src1, 1);
    EXPECT_EQ(seg.insts[1].inst.imm, 24);

    ReassocOptions no_mem;
    no_mem.foldMemDisplacement = false;
    TraceSegment seg2;
    append(seg2, addi(3, 1, 16), 0);
    append(seg2, lw(5, 3, 8), 1);
    markDependencies(seg2);
    EXPECT_EQ(reassociate(seg2, no_mem), 0u);
}

TEST(Reassoc, OnlyAdditiveImmediates)
{
    TraceSegment seg;
    Instruction ori;
    ori.op = Op::ORI;
    ori.dest = 3;
    ori.src1 = 1;
    ori.imm = 4;
    append(seg, ori, 0);
    append(seg, addi(5, 3, 4), 1);  // producer is ORI: no fold
    markDependencies(seg);
    EXPECT_EQ(reassociate(seg), 0u);
}

// ---- scaled adds ---------------------------------------------------------

TEST(Scaled, CollapsesShiftAddPair)
{
    TraceSegment seg;
    append(seg, slli(3, 1, 2));
    append(seg, add(5, 3, 2));
    markDependencies(seg);
    EXPECT_EQ(createScaledAdds(seg), 1u);
    const TraceInst &c = seg.insts[1];
    EXPECT_TRUE(c.hasScale());
    EXPECT_EQ(c.scaledSrcIdx, 0);
    EXPECT_EQ(c.scaleAmt, 2);
    EXPECT_EQ(c.inst.src1, 1);      // shift's source
    EXPECT_EQ(c.srcDep[0], kDepLiveIn);
    EXPECT_TRUE(depsConsistent(seg));
    // The shift itself remains in the segment (paper §4.4).
    EXPECT_EQ(seg.insts[0].inst.op, Op::SLLI);
}

TEST(Scaled, ShiftLimitIsThreeBits)
{
    for (unsigned sh : {1u, 2u, 3u}) {
        TraceSegment seg;
        append(seg, slli(3, 1, sh));
        append(seg, add(5, 3, 2));
        markDependencies(seg);
        EXPECT_EQ(createScaledAdds(seg), 1u) << sh;
    }
    for (unsigned sh : {4u, 8u, 31u}) {
        TraceSegment seg;
        append(seg, slli(3, 1, sh));
        append(seg, add(5, 3, 2));
        markDependencies(seg);
        EXPECT_EQ(createScaledAdds(seg), 0u) << sh;
    }
}

TEST(Scaled, IndexedLoadIndexOperand)
{
    TraceSegment seg;
    append(seg, slli(3, 1, 2));
    Instruction lwx;
    lwx.op = Op::LWX;
    lwx.dest = 5;
    lwx.src1 = 16;
    lwx.src2 = 3;
    append(seg, lwx);
    markDependencies(seg);
    EXPECT_EQ(createScaledAdds(seg), 1u);
    EXPECT_EQ(seg.insts[1].scaledSrcIdx, 1);    // the index operand
    EXPECT_EQ(seg.insts[1].inst.src2, 1);
}

TEST(Scaled, DisplacedLoadBaseOperand)
{
    TraceSegment seg;
    append(seg, slli(3, 1, 3));
    append(seg, lw(5, 3, 64));
    markDependencies(seg);
    EXPECT_EQ(createScaledAdds(seg), 1u);
    EXPECT_EQ(seg.insts[1].scaledSrcIdx, 0);
    EXPECT_EQ(seg.insts[1].scaleAmt, 3);
}

TEST(Scaled, StoreDataNeverScaled)
{
    TraceSegment seg;
    append(seg, slli(3, 1, 2));
    Instruction swx;
    swx.op = Op::SWX;
    swx.src1 = 16;
    swx.src2 = 9;       // index not dependent
    swx.src3 = 3;       // data IS dependent: must not scale
    append(seg, swx);
    markDependencies(seg);
    EXPECT_EQ(createScaledAdds(seg), 0u);
}

TEST(Scaled, OnlyOneOperandScaled)
{
    TraceSegment seg;
    append(seg, slli(3, 1, 2));
    append(seg, slli(4, 2, 3));
    append(seg, add(5, 3, 4));      // both operands are shifts
    markDependencies(seg);
    EXPECT_EQ(createScaledAdds(seg), 1u);
    const TraceInst &c = seg.insts[2];
    EXPECT_EQ(c.scaledSrcIdx, 0);   // first candidate slot wins
    EXPECT_EQ(c.inst.src2, 4);      // second operand untouched
}

// ---- placement ---------------------------------------------------------

TEST(Placement, SlotsAreAPermutation)
{
    TraceSegment seg;
    for (int i = 0; i < 12; ++i)
        append(seg, addi(static_cast<RegIndex>(3 + i), 1, i));
    markDependencies(seg);
    placeInstructions(seg);
    std::array<bool, 16> used{};
    for (const auto &ti : seg.insts) {
        EXPECT_LT(ti.slot, 16);
        EXPECT_FALSE(used[ti.slot]);
        used[ti.slot] = true;
    }
}

TEST(Placement, DependentsShareCluster)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1));
    append(seg, addi(4, 3, 1));
    append(seg, addi(5, 4, 1));
    append(seg, addi(6, 5, 1));
    markDependencies(seg);
    placeInstructions(seg, 16, 4);
    unsigned cl = seg.insts[0].slot / 4;
    for (const auto &ti : seg.insts)
        EXPECT_EQ(ti.slot / 4u, cl);
}

TEST(Placement, HintsSteerLiveIns)
{
    PlacementHints hints;
    hints.cluster[7] = 2;
    TraceSegment seg;
    append(seg, addi(3, 7, 1));     // live-in r7 hinted to cluster 2
    markDependencies(seg);
    placeInstructions(seg, 16, 4, &hints);
    EXPECT_EQ(seg.insts[0].slot / 4u, 2u);
    // The hint table now records r3's new home.
    EXPECT_EQ(hints.cluster[3], 2);
}

TEST(Placement, MovesDoNotOccupySlots)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 5));
    append(seg, addi(4, 3, 0));     // move
    append(seg, addi(5, 3, 7));
    markDependencies(seg);
    markMoves(seg);
    placeInstructions(seg);
    // Non-move instructions get distinct low slots.
    EXPECT_NE(seg.insts[0].slot, seg.insts[2].slot);
}

TEST(Placement, IdentityBaseline)
{
    TraceSegment seg;
    for (int i = 0; i < 5; ++i)
        append(seg, addi(static_cast<RegIndex>(3 + i), 1, i));
    placeIdentity(seg);
    for (std::size_t i = 0; i < seg.size(); ++i)
        EXPECT_EQ(seg.insts[i].slot, i);
}

// ---- dead-write elision (extension) -----------------------------------

TEST(DeadCode, ElidesOverwrittenSameRegionWrite)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1), 0);  // dead: overwritten, unread
    append(seg, addi(3, 2, 2), 0);
    append(seg, addi(4, 3, 1), 0);
    markDependencies(seg);
    EXPECT_EQ(eliminateDeadWrites(seg), 1u);
    EXPECT_TRUE(seg.insts[0].deadElided);
    EXPECT_FALSE(seg.insts[1].deadElided);
}

TEST(DeadCode, ReaderBlocksElision)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1), 0);
    append(seg, addi(4, 3, 1), 0);  // reads r3 first
    append(seg, addi(3, 2, 2), 0);
    markDependencies(seg);
    EXPECT_EQ(eliminateDeadWrites(seg), 0u);
}

TEST(DeadCode, CrossRegionOverwriteIsUnsafe)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1), 0);  // overwriter is behind a branch:
    append(seg, addi(3, 2, 2), 1);  // partial execution may need r3
    markDependencies(seg);
    EXPECT_EQ(eliminateDeadWrites(seg), 0u);
}

TEST(DeadCode, MemoryControlAndMovesExempt)
{
    TraceSegment seg;
    append(seg, lw(3, 1, 0), 0);    // load: side effects, keep
    append(seg, addi(3, 2, 2), 0);
    markDependencies(seg);
    EXPECT_EQ(eliminateDeadWrites(seg), 0u);

    TraceSegment seg2;
    append(seg2, addi(3, 1, 0), 0);     // move idiom
    append(seg2, addi(3, 2, 2), 0);
    markDependencies(seg2);
    markMoves(seg2);
    // The move is already free; elision must not double-claim it.
    EXPECT_EQ(eliminateDeadWrites(seg2), 0u);
}

TEST(DeadCode, MoveAliasCountsAsReader)
{
    TraceSegment seg;
    append(seg, addi(3, 1, 1), 0);      // producer
    append(seg, addi(4, 3, 0), 0);      // move aliasing r3
    append(seg, addi(3, 2, 2), 0);      // overwrite r3
    append(seg, addi(5, 4, 1), 0);      // r4 (aliased r3 value) read
    markDependencies(seg);
    markMoves(seg);
    EXPECT_EQ(eliminateDeadWrites(seg), 0u);
}

TEST(DeadCode, ScaledAddFreesShiftForElision)
{
    // The paper's motivating synergy: once the scaled add absorbs the
    // shift, the leftover shift becomes dead if it is overwritten.
    TraceSegment seg;
    append(seg, slli(3, 1, 2), 0);
    append(seg, add(5, 3, 2), 0);   // consumer of the shift
    append(seg, addi(3, 2, 1), 0);  // overwrites the shift result
    markDependencies(seg);
    EXPECT_EQ(eliminateDeadWrites(seg), 0u);    // still read
    EXPECT_EQ(createScaledAdds(seg), 1u);       // frees the reader
    EXPECT_EQ(eliminateDeadWrites(seg), 1u);
    EXPECT_TRUE(seg.insts[0].deadElided);
}

// ---- value-equivalence property test ---------------------------------
//
// Generate random segments, run them through runPasses() under every
// pass mask, and check every observable outcome (results, addresses,
// store data, branch conditions) is identical to the unoptimized
// segment for random live-in values, with consistent dependency
// indices. This is the correctness contract of the whole fill unit.

Instruction
randomInst(Random &rng)
{
    Instruction in;
    auto reg = [&rng]() {
        return static_cast<RegIndex>(rng.below(12) + 1);
    };
    switch (rng.below(10)) {
      case 0: case 1: case 2:
        in.op = Op::ADDI;
        in.dest = reg();
        in.src1 = rng.percent(20) ? kRegZero : reg();
        in.imm = static_cast<std::int32_t>(rng.range(-64, 64)) *
                 (rng.percent(10) ? 0 : 1);
        break;
      case 3:
        in.op = Op::SLLI;
        in.dest = reg();
        in.src1 = reg();
        in.shamt = static_cast<std::uint8_t>(rng.below(5));
        break;
      case 4:
        in.op = Op::ADD;
        in.dest = reg();
        in.src1 = reg();
        in.src2 = rng.percent(25) ? kRegZero : reg();
        break;
      case 5:
        in.op = Op::LW;
        in.dest = reg();
        in.src1 = reg();
        in.imm = static_cast<std::int32_t>(rng.range(-32, 32)) * 4;
        break;
      case 6:
        in.op = Op::LWX;
        in.dest = reg();
        in.src1 = reg();
        in.src2 = reg();
        break;
      case 7:
        in.op = Op::SW;
        in.src1 = reg();
        in.src3 = reg();
        in.imm = static_cast<std::int32_t>(rng.range(-32, 32)) * 4;
        break;
      case 8:
        in.op = rng.percent(50) ? Op::BEQ : Op::BNE;
        in.src1 = reg();
        in.src2 = reg();
        in.imm = 4;
        break;
      default:
        in.op = rng.percent(50) ? Op::XOR : Op::SUB;
        in.dest = reg();
        in.src1 = reg();
        in.src2 = reg();
        break;
    }
    return in;
}

/** 4-16 random instructions; a control op or a 20% draw ends a block. */
TraceSegment
randomSegment(Random &rng)
{
    TraceSegment seg;
    unsigned region = 0;
    const unsigned n = 4 + static_cast<unsigned>(rng.below(13));
    for (unsigned i = 0; i < n; ++i) {
        Instruction in = randomInst(rng);
        append(seg, in, region);
        if (in.isControl() || rng.percent(20))
            ++region;
    }
    return seg;
}

class PassEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PassEquivalence, OptimizedSegmentComputesSameValues)
{
    Random rng(GetParam() * 2654435761u + 17);
    TraceSegment seg = randomSegment(rng);

    TraceSegment original = seg;
    markDependencies(original);
    ReassocOptions reassoc;
    reassoc.crossBlockOnly = rng.percent(50);
    reassoc.foldMemDisplacement = rng.percent(50);

    for (unsigned m = 0; m <= kPassMaskEvery; ++m) {
        SCOPED_TRACE("mask " + passMaskName(static_cast<PassMask>(m)) +
                     " seed " + std::to_string(GetParam()));
        TraceSegment opt_seg = seg;
        PlacementHints hints;
        runPasses(opt_seg, static_cast<PassMask>(m), reassoc, &hints);
        ASSERT_TRUE(depsConsistent(opt_seg));

        for (int trial = 0; trial < 4; ++trial) {
            std::array<std::uint32_t, kNumArchRegs> livein{};
            for (auto &v : livein)
                v = static_cast<std::uint32_t>(rng.next());
            livein[0] = 0;

            auto ref = test::evaluateSegment(original, livein);
            auto opt = test::evaluateSegment(opt_seg, livein);
            ASSERT_EQ(ref.size(), opt.size());
            for (std::size_t i = 0; i < ref.size(); ++i) {
                EXPECT_EQ(ref[i], opt[i])
                    << "inst " << i << " ("
                    << disassemble(original.insts[i].inst) << " -> "
                    << disassemble(opt_seg.insts[i].inst) << ")";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassEquivalence,
                         ::testing::Range(0u, 60u));

void
expectSameSegment(const TraceSegment &a, const TraceSegment &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("inst " + std::to_string(i));
        const TraceInst &x = a.insts[i];
        const TraceInst &y = b.insts[i];
        EXPECT_EQ(x.inst, y.inst);
        EXPECT_EQ(x.pc, y.pc);
        for (int s = 0; s < 3; ++s)
            EXPECT_EQ(x.srcDep[s], y.srcDep[s]);
        EXPECT_EQ(x.liveOut, y.liveOut);
        EXPECT_EQ(x.isMove, y.isMove);
        EXPECT_EQ(x.moveSrc, y.moveSrc);
        EXPECT_EQ(x.moveSrcDep, y.moveSrcDep);
        EXPECT_EQ(x.scaledSrcIdx, y.scaledSrcIdx);
        EXPECT_EQ(x.scaleAmt, y.scaleAmt);
        EXPECT_EQ(x.slot, y.slot);
        EXPECT_EQ(x.deadElided, y.deadElided);
        EXPECT_EQ(x.reassociated, y.reassociated);
    }
}

class PipelineEquivalence : public ::testing::TestWithParam<unsigned>
{
};

/**
 * For every mask, runPasses must perform exactly the call sequence the
 * pre-policy boolean dispatch performed, gated by the FillOptimizations
 * flags optsFromPassMask derives from the mask: same segment rewrites,
 * same placement-hint evolution, same per-pass transform counts. This
 * is the unit-level form of the golden-fixture byte-identity contract.
 */
TEST_P(PipelineEquivalence, MatchesLegacyDispatchForEveryMask)
{
    for (unsigned m = 0; m <= kPassMaskEvery; ++m) {
        const PassMask mask = static_cast<PassMask>(m);
        Random rng(GetParam() * 2654435761u + m * 97 + 5);

        FillOptimizations base;
        base.reassocOptions.crossBlockOnly = rng.percent(50);
        base.reassocOptions.foldMemDisplacement = rng.percent(50);
        const FillOptimizations opts = optsFromPassMask(mask, base);

        TraceSegment seg = randomSegment(rng);
        TraceSegment legacy = seg;

        // The pre-policy FillUnit::finalize dispatch, verbatim.
        PassCounts legacy_counts;
        PlacementHints legacy_hints;
        markDependencies(legacy);
        if (opts.markMoves)
            legacy_counts.movesMarked = markMoves(legacy);
        if (opts.reassociate)
            legacy_counts.reassociations =
                reassociate(legacy, opts.reassocOptions);
        if (opts.scaledAdds)
            legacy_counts.scaledAdds = createScaledAdds(legacy);
        if (opts.deadCodeElim)
            legacy_counts.deadElided = eliminateDeadWrites(legacy);
        if (opts.placement)
            placeInstructions(legacy, kSegmentMaxInsts, 4, &legacy_hints);
        else
            placeIdentity(legacy);

        PlacementHints hints;
        const PassCounts counts =
            runPasses(seg, mask, opts.reassocOptions, &hints);

        SCOPED_TRACE("mask " + std::to_string(m) + " seed " +
                     std::to_string(GetParam()));
        expectSameSegment(legacy, seg);
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            EXPECT_EQ(hints.cluster[r], legacy_hints.cluster[r])
                << "hint r" << r;
        EXPECT_EQ(counts.movesMarked, legacy_counts.movesMarked);
        EXPECT_EQ(counts.reassociations, legacy_counts.reassociations);
        EXPECT_EQ(counts.scaledAdds, legacy_counts.scaledAdds);
        EXPECT_EQ(counts.deadElided, legacy_counts.deadElided);
        EXPECT_TRUE(depsConsistent(seg));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineEquivalence,
                         ::testing::Range(0u, 20u));

} // namespace
} // namespace tcfill
