/** @file Unit tests for the trace cache (storage, LRU, paths). */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "trace/tcache.hh"

namespace tcfill
{
namespace
{

TraceSegment
makeSeg(Addr start, unsigned n, bool taken = false)
{
    TraceSegment seg;
    seg.startPc = start;
    for (unsigned i = 0; i < n; ++i) {
        TraceInst ti;
        ti.inst.op = Op::ADDI;
        ti.inst.dest = 3;
        ti.inst.src1 = 3;
        ti.inst.imm = 1;
        ti.pc = start + i * 4;
        ti.taken = taken;
        ti.origIdx = static_cast<std::uint8_t>(i);
        seg.insts.push_back(ti);
    }
    seg.nextPc = start + n * 4;
    return seg;
}

TEST(TraceCache, MissThenHit)
{
    TraceCache tc;
    EXPECT_EQ(tc.lookup(0x400000), nullptr);
    tc.install(makeSeg(0x400000, 8));
    const TraceSegment *seg = tc.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->size(), 8u);
    EXPECT_EQ(tc.hits(), 1u);
    EXPECT_EQ(tc.misses(), 1u);
}

TEST(TraceCache, SamePathRefreshesInPlace)
{
    TraceCache tc;
    tc.install(makeSeg(0x400000, 8));
    tc.install(makeSeg(0x400000, 8));
    EXPECT_EQ(tc.installs(), 2u);
    // Still a single copy: a different start misses.
    EXPECT_EQ(tc.lookup(0x400004), nullptr);
}

TEST(TraceCache, PathAssociativityKeepsBothPaths)
{
    TraceCache::Params p;
    p.entries = 8;
    p.ways = 4;
    TraceCache tc(p);
    tc.install(makeSeg(0x400000, 8, false));
    tc.install(makeSeg(0x400000, 8, true));     // different path
    // MRU selection returns the most recently installed path.
    const TraceSegment *seg = tc.lookup(0x400000);
    ASSERT_NE(seg, nullptr);
    EXPECT_TRUE(seg->insts[0].taken);
    // Both paths stay resident.
    unsigned taken = 0, not_taken = 0;
    tc.forEach([&](const TraceSegment &s) {
        EXPECT_EQ(s.startPc, 0x400000u);
        ++(s.insts[0].taken ? taken : not_taken);
    });
    EXPECT_EQ(taken, 1u);
    EXPECT_EQ(not_taken, 1u);
}

TEST(TraceCache, LruEvictionWithinSet)
{
    TraceCache::Params p;
    p.entries = 2;      // 1 set x 2 ways
    p.ways = 2;
    TraceCache tc(p);
    tc.install(makeSeg(0x400000, 4));
    tc.install(makeSeg(0x400004, 4));
    tc.lookup(0x400000);                    // refresh LRU
    tc.install(makeSeg(0x400008, 4));       // evicts 0x400004
    EXPECT_TRUE(tc.probe(0x400000));
    EXPECT_FALSE(tc.probe(0x400004));
    EXPECT_TRUE(tc.probe(0x400008));
}

TEST(TraceCache, FlushDropsEverything)
{
    TraceCache tc;
    tc.install(makeSeg(0x400000, 4));
    tc.flush();
    EXPECT_FALSE(tc.probe(0x400000));
}

TEST(TraceCache, PaperStorageBudget)
{
    // Baseline: 2K entries x 16 insts x (32 inst bits + 7 pre-decode)
    // = 128KB of instructions + 28KB of pre-decode (paper §3: ~156KB).
    std::size_t bits = SimConfig{}.tcacheStorageBits();
    EXPECT_EQ(bits, 2048u * 16 * 39);
    EXPECT_EQ(bits / 8, 128u * 1024 + 28 * 1024);
}

TEST(TraceCache, OptimizationBitBudget)
{
    // +1 move bit, +2 scaled bits, +4 placement bits = 7 extra bits
    // per instruction (paper §4.6); dead-write elision adds none.
    const SimConfig all = SimConfig::withOpts(FillOptimizations::all());
    const SimConfig ext =
        SimConfig::withOpts(FillOptimizations::extended());
    EXPECT_EQ(all.tcacheStorageBits() - SimConfig{}.tcacheStorageBits(),
              2048u * 16 * 7);
    EXPECT_EQ(ext.tcacheStorageBits(), all.tcacheStorageBits());
}

TEST(TraceCacheDeath, EmptySegmentPanics)
{
    TraceCache tc;
    TraceSegment empty;
    empty.startPc = 0x400000;
    EXPECT_DEATH(tc.install(std::move(empty)), "empty trace segment");
}

TEST(SegmentMeta, CondTargetArithmetic)
{
    TraceInst ti;
    ti.pc = 0x400100;
    ti.inst.op = Op::BEQ;
    ti.inst.imm = -4;
    EXPECT_EQ(ti.condTarget(), 0x400100 + 4 - 16);
    ti.inst.imm = 3;
    EXPECT_EQ(ti.condTarget(), 0x400100 + 4 + 12);
}

TEST(SegmentMeta, BitsPerInst)
{
    EXPECT_EQ(TraceSegment::bitsPerInst(false, false, false), 39u);
    EXPECT_EQ(TraceSegment::bitsPerInst(true, false, false), 40u);
    EXPECT_EQ(TraceSegment::bitsPerInst(false, true, false), 41u);
    EXPECT_EQ(TraceSegment::bitsPerInst(false, false, true), 43u);
    EXPECT_EQ(TraceSegment::bitsPerInst(true, true, true), 46u);
}

} // namespace
} // namespace tcfill
