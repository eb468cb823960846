/** @file Integration tests: the full pipeline on small programs. */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "sim/processor.hh"

namespace tcfill
{
namespace
{

/** A simple counted loop with a bit of arithmetic. */
Program
loopProgram(int iters)
{
    ProgramBuilder pb("loop");
    Addr buf = pb.allocData(256, 8);
    pb.la(1, buf);
    pb.li(2, iters);
    pb.li(3, 0);
    Label top = pb.newLabel();
    pb.bind(top);
    pb.add(3, 3, 2);
    pb.andi(4, 2, 7);
    pb.slli(5, 4, 2);
    pb.lwx(6, 1, 5);
    pb.add(3, 3, 6);
    pb.swx(3, 1, 5);
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    return pb.finish();
}

/** Call-heavy program exercising the RAS. */
Program
callProgram(int iters)
{
    ProgramBuilder pb("calls");
    Label fn = pb.newLabel(), start = pb.newLabel();
    pb.j(start);
    pb.bind(fn);
    pb.addi(2, 1, 3);
    pb.ret();
    pb.bind(start);
    pb.li(4, iters);
    Label top = pb.newLabel();
    pb.bind(top);
    pb.move(1, 4);
    pb.jal(fn);
    pb.add(5, 5, 2);
    pb.addi(4, 4, -1);
    pb.bgtz(4, top);
    pb.halt();
    return pb.finish();
}

SimConfig
cfgWith(FillOptimizations opts)
{
    SimConfig cfg = SimConfig::withOpts(opts);
    return cfg;
}

TEST(Processor, RunsToCompletion)
{
    Program p = loopProgram(500);
    SimResult r = simulate(p, cfgWith(FillOptimizations::none()));
    EXPECT_EQ(r.retired, runFunctional(p));
    EXPECT_GT(r.ipc(), 0.5);
    EXPECT_LT(r.ipc(), 16.0);
}

TEST(Processor, RetiredCountInvariantUnderOptimizations)
{
    Program p = loopProgram(400);
    InstSeqNum expect = runFunctional(p);
    for (auto opts : {FillOptimizations::none(),
                      FillOptimizations::all()}) {
        SimResult r = simulate(p, cfgWith(opts));
        EXPECT_EQ(r.retired, expect);
    }
}

TEST(Processor, DeterministicAcrossRuns)
{
    Program p = loopProgram(300);
    SimResult a = simulate(p, cfgWith(FillOptimizations::all()));
    SimResult b = simulate(p, cfgWith(FillOptimizations::all()));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.tcHits, b.tcHits);
}

TEST(Processor, TraceCacheImprovesFetch)
{
    // A fetch-bound loop: independent work chopped into small basic
    // blocks by always-untaken branches. The I-cache path delivers
    // one block per cycle; the trace cache delivers several.
    ProgramBuilder pb("blocks");
    pb.li(2, 800);
    Label top = pb.newLabel();
    pb.bind(top);
    std::array<Label, 4> skips{pb.newLabel(), pb.newLabel(),
                               pb.newLabel(), pb.newLabel()};
    for (int b = 0; b < 4; ++b) {
        // Independent per-block work on disjoint registers.
        RegIndex r = static_cast<RegIndex>(6 + b);
        pb.addi(r, r, 1);
        pb.xori(static_cast<RegIndex>(10 + b), r, 0x55);
        pb.bltz(2, skips[static_cast<std::size_t>(b)]);  // never taken
        pb.bind(skips[static_cast<std::size_t>(b)]);
    }
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    Program p = pb.finish();

    SimConfig with_tc = cfgWith(FillOptimizations::none());
    SimConfig without_tc = with_tc;
    without_tc.useTraceCache = false;
    SimResult a = simulate(p, with_tc);
    SimResult b = simulate(p, without_tc);
    EXPECT_GT(a.tcHits, 0u);
    EXPECT_EQ(b.tcHits, 0u);
    // Multi-block trace lines beat one block per cycle.
    EXPECT_GT(a.ipc(), 1.2 * b.ipc());
}

TEST(Processor, TraceCacheHitRateConvergesOnALoop)
{
    Program p = loopProgram(2000);
    SimResult r = simulate(p, cfgWith(FillOptimizations::none()));
    EXPECT_GT(r.tcHitRate(), 0.9);
}

TEST(Processor, MaxInstsCap)
{
    Program p = loopProgram(100000);
    SimConfig cfg = cfgWith(FillOptimizations::none());
    cfg.maxInsts = 5000;
    SimResult r = simulate(p, cfg);
    EXPECT_EQ(r.retired, 5000u);
}

TEST(Processor, MaxCyclesCap)
{
    Program p = loopProgram(100000);
    SimConfig cfg = cfgWith(FillOptimizations::none());
    cfg.maxCycles = 1000;
    SimResult r = simulate(p, cfg);
    EXPECT_EQ(r.cycles, 1000u);
}

TEST(Processor, CallsReturnPredictedByRas)
{
    Program p = callProgram(500);
    SimResult r = simulate(p, cfgWith(FillOptimizations::none()));
    // Warm RAS: the per-call return should almost never mispredict;
    // budget a few per cold start.
    EXPECT_LT(r.mispredicts, 30u);
}

TEST(Processor, MoveMarkingCountsMoves)
{
    Program p = callProgram(400);
    FillOptimizations mv;
    mv.markMoves = true;
    SimResult r = simulate(p, cfgWith(mv));
    // One `move` per loop iteration out of ~6 instructions.
    EXPECT_GT(r.fracMoves(), 0.05);
    EXPECT_GT(r.fracMoveIdioms(), 0.05);
    // Baseline still *detects* idioms but marks none.
    SimResult base = simulate(p, cfgWith(FillOptimizations::none()));
    EXPECT_EQ(base.dynMoves, 0u);
    EXPECT_GT(base.dynMoveIdioms, 0u);
}

TEST(Processor, ScaledAddsCountOnArrayLoop)
{
    Program p = loopProgram(500);
    FillOptimizations sc;
    sc.scaledAdds = true;
    SimResult r = simulate(p, cfgWith(sc));
    EXPECT_GT(r.dynScaled, 0u);
}

TEST(Processor, FillLatencyInsensitive)
{
    // The paper's headline robustness claim (§4.6): 1/5/10-cycle fill
    // pipelines perform nearly identically once traces are warm.
    Program p = loopProgram(3000);
    double ipc1 = 0, ipc10 = 0;
    {
        SimConfig cfg = SimConfig::withOpts(FillOptimizations::all(), 1);
        ipc1 = simulate(p, cfg).ipc();
    }
    {
        SimConfig cfg =
            SimConfig::withOpts(FillOptimizations::all(), 10);
        ipc10 = simulate(p, cfg).ipc();
    }
    EXPECT_NEAR(ipc1, ipc10, 0.05 * ipc1);
}

TEST(Processor, InactiveIssueHelpsOnHardBranches)
{
    // A loop with a data-dependent branch the predictor cannot learn.
    ProgramBuilder pb("hard");
    Addr buf = pb.allocData(1024, 8);
    // Fill with pseudo-random words at build time.
    pb.la(1, buf);
    pb.li(2, 200);
    pb.li(7, 0x55a3);
    Label top = pb.newLabel(), skip = pb.newLabel();
    pb.bind(top);
    // xorshift-ish whitener so the branch is ~50/50.
    pb.slli(8, 7, 7);
    pb.xor_(7, 7, 8);
    pb.srli(8, 7, 9);
    pb.xor_(7, 7, 8);
    pb.andi(9, 7, 1);
    pb.beq(9, 0, skip);
    pb.addi(3, 3, 1);
    pb.bind(skip);
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    Program p = pb.finish();

    SimConfig on = cfgWith(FillOptimizations::none());
    SimConfig off = on;
    off.inactiveIssue = false;
    SimResult a = simulate(p, on);
    SimResult b = simulate(p, off);
    EXPECT_GT(a.inactiveRescues, 0u);
    EXPECT_EQ(b.inactiveRescues, 0u);
    EXPECT_GE(a.ipc(), b.ipc());
}

TEST(Processor, SerializingInstructionDrains)
{
    ProgramBuilder pb("serial");
    pb.li(1, 10);
    Label top = pb.newLabel();
    pb.bind(top);
    pb.syscall_();
    pb.addi(1, 1, -1);
    pb.bgtz(1, top);
    pb.halt();
    Program p = pb.finish();
    SimResult r = simulate(p, cfgWith(FillOptimizations::none()));
    EXPECT_EQ(r.retired, runFunctional(p));
}

TEST(Processor, StatsDumpContainsComponents)
{
    Program p = loopProgram(200);
    Processor proc(p, cfgWith(FillOptimizations::none()));
    proc.run();
    std::ostringstream os;
    proc.dumpStats(os);
    for (const char *key : {"tcache.hits", "fill.segments",
                            "bpred.accuracy", "l1d.misses",
                            "core.selected"}) {
        EXPECT_NE(os.str().find(key), std::string::npos) << key;
    }
}

TEST(Processor, IndirectTargetMispredictsThenLearns)
{
    // A computed jump alternating between two targets: the last-target
    // indirect predictor mispredicts on every alternation.
    ProgramBuilder pb("indirect");
    Label t1 = pb.newLabel(), t2 = pb.newLabel(), top = pb.newLabel();
    Label join = pb.newLabel();
    Addr tbl = pb.allocData(8, 8);
    pb.la(1, tbl);
    pb.li(2, 400);
    pb.bind(top);
    pb.andi(3, 2, 1);
    pb.slli(3, 3, 2);
    pb.lwx(4, 1, 3);        // target from table
    pb.jr(4);
    pb.bind(t1);
    pb.addi(5, 5, 1);
    pb.j(join);
    pb.bind(t2);
    pb.addi(6, 6, 1);
    pb.j(join);
    pb.bind(join);
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    Program p = pb.finish();
    // Late-bind the two targets into the table. The label addresses
    // are only known after finish(); patch the data segment.
    // t1 and t2 are the first instructions after the jr.
    Addr jr_pc = 0;
    for (std::size_t i = 0; i < p.text.size(); ++i) {
        if (decode(p.text[i]).op == Op::JR)
            jr_pc = p.textBase + i * 4;
    }
    ASSERT_NE(jr_pc, 0u);
    auto patch = [&](Addr addr, std::uint32_t v) {
        for (auto &seg : p.data) {
            if (addr >= seg.base &&
                addr + 4 <= seg.base + seg.bytes.size()) {
                for (int k = 0; k < 4; ++k)
                    seg.bytes[addr - seg.base + k] =
                        static_cast<std::uint8_t>(v >> (8 * k));
            }
        }
    };
    patch(tbl, static_cast<std::uint32_t>(jr_pc + 4 + 8));  // t2
    patch(tbl + 4, static_cast<std::uint32_t>(jr_pc + 4));  // t1

    SimResult r = simulate(p, cfgWith(FillOptimizations::none()));
    EXPECT_EQ(r.retired, runFunctional(p));
    // Alternating targets defeat a last-target predictor: roughly one
    // mispredict per iteration.
    EXPECT_GT(r.mispredicts, 300u);
}

TEST(Processor, PromotedBranchDemotionRecovers)
{
    // A branch taken 200 times (promoted at 64) then not-taken once:
    // the promoted mispredict must recover, and the run completes.
    ProgramBuilder pb("promote");
    Label top = pb.newLabel(), out = pb.newLabel();
    pb.li(1, 200);
    pb.bind(top);
    pb.addi(1, 1, -1);
    pb.bgtz(1, top);        // promoted after 64 taken occurrences
    pb.bind(out);
    pb.li(2, 77);
    pb.halt();
    Program p = pb.finish();
    SimResult r = simulate(p, cfgWith(FillOptimizations::none()));
    EXPECT_EQ(r.retired, runFunctional(p));
}

TEST(Processor, TinyWindowStillCompletes)
{
    Program p = loopProgram(300);
    SimConfig cfg = cfgWith(FillOptimizations::all());
    cfg.windowCap = 32;     // heavy issue backpressure
    SimResult r = simulate(p, cfg);
    EXPECT_EQ(r.retired, runFunctional(p));
}

TEST(Processor, DeadElisionCountsAndStaysCorrect)
{
    // A loop with a same-region dead write (flag recomputed).
    ProgramBuilder pb("dead");
    pb.li(2, 600);
    Label top = pb.newLabel();
    pb.bind(top);
    pb.slti(4, 2, 100);     // dead: overwritten before any read
    pb.slti(4, 2, 300);
    pb.add(5, 5, 4);
    pb.addi(2, 2, -1);
    pb.bgtz(2, top);
    pb.halt();
    Program p = pb.finish();
    SimResult r = simulate(p, cfgWith(FillOptimizations::extended()));
    EXPECT_EQ(r.retired, runFunctional(p));
    EXPECT_GT(r.dynElided, 300u);
}

TEST(Processor, StorageBitsFollowConfiguredOpts)
{
    // The metadata bits follow fill.opts, however the opts were set.
    SimConfig cfg;
    cfg.fill.opts = FillOptimizations::all();
    EXPECT_EQ(cfg.tcacheStorageBits(), 2048u * 16 * 46);
    cfg.fill.opts.placement = false;
    EXPECT_EQ(cfg.tcacheStorageBits(), 2048u * 16 * 42);
    cfg.tcache.entries = 512;
    EXPECT_EQ(cfg.tcacheStorageBits(), 512u * 16 * 42);
}

/** Property: every optimization combination retires the same count
 *  and completes without deadlock on a mixed program. */
class OptMatrix : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(OptMatrix, AllCombinationsComplete)
{
    unsigned bits = GetParam();
    FillOptimizations opts;
    opts.markMoves = bits & 1;
    opts.reassociate = bits & 2;
    opts.scaledAdds = bits & 4;
    opts.placement = bits & 8;
    opts.deadCodeElim = bits & 16;      // §5 extension
    Program p = loopProgram(600);
    SimResult r = simulate(p, cfgWith(opts));
    EXPECT_EQ(r.retired, runFunctional(p));
    EXPECT_GT(r.ipc(), 0.3);
}

INSTANTIATE_TEST_SUITE_P(AllThirtyTwo, OptMatrix,
                         ::testing::Range(0u, 32u));

} // namespace
} // namespace tcfill
