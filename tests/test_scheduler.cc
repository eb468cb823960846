/**
 * @file
 * Scheduler pins (DESIGN.md §13): recorded digests of what the
 * execution core does on every input the retired per-cycle scan
 * scheduler was once compared against. A pin is the FNV-1a 64 of a
 * run's deterministic record text (resultRecordText) followed by
 * "|selected,bypassDelayed,loadForwards" from the core, so a change
 * to any simulated counter, the timeline or the policy record moves
 * it. Each row was recorded while the scan core still ran next to the
 * wakeup core and matched it, so the table stands in for a live
 * second implementation. mem_sched_stalls is left out: it counts
 * select attempts, not timing, and is registered non-timing.
 *
 * A pin moves only on purpose: a change that is meant to alter the
 * machine re-records the table and says why.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hh"
#include "mem/cache.hh"
#include "sim/processor.hh"
#include "sim/result_io.hh"
#include "uarch/exec_core.hh"
#include "workloads/suite.hh"

namespace tcfill
{
namespace
{

/** Pin of run @p r of processor @p p. */
std::string
pinOf(const Processor &p, const SimResult &r)
{
    const ExecCore &core = p.core();
    const std::string text = resultRecordText(r) + '|' +
        std::to_string(core.selectedCount()) + ',' +
        std::to_string(core.bypassDelayedCount()) + ',' +
        std::to_string(core.loadForwardsCount());
    return digest::hex64(digest::fnv64(text));
}

/** Pin of one full pipeline run of @p workload under @p cfg. */
std::string
runPin(const std::string &workload, const SimConfig &cfg)
{
    Program prog = workloads::build(workload, 1);
    Processor p(prog, cfg);
    const SimResult r = p.run();
    return pinOf(p, r);
}

/**
 * All 32 combinations of the five fill optimizations (bit 0 moves,
 * 1 reassociation, 2 scaled adds, 3 placement, 4 dead-code
 * elimination), three workloads, 20,000 instructions: long enough
 * that the dead-code bit changes the machine on li.
 */
constexpr const char *kOptPins[3][32] = {
    // compress
    {
        "fa70f320f7cbd1f7", "8f667451cf1b74d2", "fa70f320f7cbd1f7",
        "8f667451cf1b74d2", "1fb2ec7fda25b1f8", "7022a51de5cb29ae",
        "1fb2ec7fda25b1f8", "7022a51de5cb29ae", "db25c18aa3544f75",
        "6e981dc76c0f0e81", "db25c18aa3544f75", "6e981dc76c0f0e81",
        "6000094c176fcf61", "2de682beb617e056", "6000094c176fcf61",
        "2de682beb617e056", "fa70f320f7cbd1f7", "8f667451cf1b74d2",
        "fa70f320f7cbd1f7", "8f667451cf1b74d2", "1fb2ec7fda25b1f8",
        "7022a51de5cb29ae", "1fb2ec7fda25b1f8", "7022a51de5cb29ae",
        "db25c18aa3544f75", "6e981dc76c0f0e81", "db25c18aa3544f75",
        "6e981dc76c0f0e81", "6000094c176fcf61", "2de682beb617e056",
        "6000094c176fcf61", "2de682beb617e056",
    },
    // li
    {
        "9f09f0209ff49f1c", "8cee571eed25225b", "fe34d12eedf60b18",
        "1af5792afe5c883a", "861002c87e6d1f3d", "927fe13f7ae2ba6f",
        "bca2f33eec4ffa40", "d0c8cd8bf3b0df79", "28c2aef5112310bc",
        "65580654a6cef85f", "0e5653227e5c999d", "3866bd58ba6aa900",
        "69926f168852bac9", "03abf2169f086690", "defb2b624cae058a",
        "cc955f8299cba948", "9f09f0209ff49f1c", "8cee571eed25225b",
        "fe34d12eedf60b18", "1af5792afe5c883a", "2b1d27709ed217f6",
        "32e7819a48cc9166", "9db8fb832e7b105d", "227970fee2d0899e",
        "28c2aef5112310bc", "65580654a6cef85f", "0e5653227e5c999d",
        "3866bd58ba6aa900", "a64d2bcc62b29fef", "e86ede60ae23c986",
        "ff521b4ffc7482dd", "b58b898164b208e9",
    },
    // m88ksim
    {
        "1da99e0987eb4558", "29f3409eb9dacd9c", "76ce060d9c52c831",
        "2d4dcbad69c51762", "b4cb9ee8893ba080", "dedace41a9d47bec",
        "6a58244b85410328", "1ba588725b4cccd2", "4663a9ca6f7ea37c",
        "846e70c77fb3f239", "2f46823a14ad0170", "3890c173d85019b2",
        "dbb1de4526a27b9b", "a9a02a44e0a517b4", "472ec603cc0ed168",
        "22a39fdece5381a7", "1da99e0987eb4558", "29f3409eb9dacd9c",
        "76ce060d9c52c831", "2d4dcbad69c51762", "b4cb9ee8893ba080",
        "dedace41a9d47bec", "6a58244b85410328", "1ba588725b4cccd2",
        "4663a9ca6f7ea37c", "846e70c77fb3f239", "2f46823a14ad0170",
        "3890c173d85019b2", "dbb1de4526a27b9b", "a9a02a44e0a517b4",
        "472ec603cc0ed168", "22a39fdece5381a7",
    },
};

TEST(SchedulerPins, AllOptCombosThreeWorkloads)
{
    const char *names[] = {"compress", "li", "m88ksim"};
    for (unsigned w = 0; w < 3; ++w) {
        for (unsigned bits = 0; bits < 32; ++bits) {
            FillOptimizations opts;
            opts.markMoves = bits & 1;
            opts.reassociate = bits & 2;
            opts.scaledAdds = bits & 4;
            opts.placement = bits & 8;
            opts.deadCodeElim = bits & 16;
            SimConfig cfg = SimConfig::withOpts(opts);
            cfg.maxInsts = 20'000;
            EXPECT_EQ(runPin(names[w], cfg), kOptPins[w][bits])
                << names[w] << "/opts=" << bits;
        }
    }
}

/**
 * Mispredict storm: a starved predictor makes recovery (and thus
 * squash) fire constantly, stressing ready-queue and station
 * removal and load re-arming.
 */
TEST(SchedulerPins, MispredictStorm)
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.maxInsts = 20'000;
    cfg.bpred.pht0Entries = 64;
    cfg.bpred.pht1Entries = 32;
    cfg.bpred.pht2Entries = 16;
    cfg.bpred.historyBits = 4;
    const std::pair<const char *, const char *> rows[] = {
        {"go", "59d67ce16627141e"},
        {"compress", "d4912768dfd4e12f"},
    };
    for (const auto &[wl, pin] : rows) {
        Program prog = workloads::build(wl, 1);
        Processor p(prog, cfg);
        const SimResult r = p.run();
        EXPECT_GT(r.mispredicts, 100u)
            << wl << ": storm config not stormy enough to test anything";
        EXPECT_EQ(pinOf(p, r), pin) << wl;
    }
}

// ---- core-level storm --------------------------------------------------

/** Completion-recording harness for one core. */
struct StormCore
{
    StormCore() : mem(), core(ExecCoreParams{}, mem)
    {
        core.setCompleteHook(&StormCore::onComplete, this);
    }

    static void
    onComplete(void *ctx, DynInst &di)
    {
        static_cast<StormCore *>(ctx)->completed.push_back(
            {di.completeCycle, di.seq});
    }

    std::vector<std::pair<Cycle, InstSeqNum>> completed;

    MemoryHierarchy mem;
    ExecCore core;
};

/**
 * Drives one core with a randomized stream of dispatches, ticks and
 * suffix squashes (deterministic LCG, no host entropy) and pins the
 * occupancy after every step, the completion trace as sorted
 * (cycle, seq) pairs, and the core's counters. Exercises ALU chains,
 * unpipelined divides, loads and stores over a tiny address space
 * (forwarding and unknown-address blocking) and squash waves landing
 * in every structure: stations, ready queues, the store window,
 * pending stores and parked-load waiter lists.
 *
 * Occupancy is also checked live after every step: the stations
 * must hold exactly the dispatched instructions that have neither
 * started nor been squashed, counted from the instructions
 * themselves.
 */
TEST(SchedulerPins, RandomizedDispatchSquashStorm)
{
    SlabArena arena;    // outlives every instruction below
    StormCore sc;
    ExecCore &core = sc.core;
    digest::Fnv64 pin;
    auto note = [&pin](std::uint64_t v) {
        pin.update(std::to_string(v)).update(",");
    };

    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    auto rnd = [&lcg](unsigned bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>((lcg >> 33) % bound);
    };

    // Owns every instruction until the end of the test, as the window
    // would until retire.
    std::vector<DynInst *> live;
    std::vector<bool> dead;     // squashed: unusable as producer
    InstSeqNum seq = 1;
    Cycle now = 0;

    auto make = [&](Op op, int fu) -> DynInst & {
        DynInst *di = allocDynInst(arena);
        di->seq = seq++;
        di->inst.op = op;
        di->inst.dest = 3;
        di->inst.src1 = 1;
        di->inst.src2 = 2;
        di->latency = opInfo(op).latency;
        di->fu = fu;
        di->numSrcs = 2;
        di->issueCycle = now;
        live.push_back(di);
        dead.push_back(false);
        return *di;
    };

    auto linkProducer = [&](unsigned k) {
        // A random live, non-dead *older* instruction (never the
        // just-created one at back()); may end up unlinked.
        if (live.size() < 2)
            return;
        unsigned tries = 4;
        while (tries--) {
            unsigned j = rnd(static_cast<unsigned>(live.size()) - 1);
            if (dead[j])
                continue;
            live.back()->src[k] = Operand::of(*live[j]);
            return;
        }
    };

    constexpr unsigned kSteps = 4000;
    for (unsigned step = 0; step < kSteps; ++step) {
        unsigned action = rnd(10);
        if (action < 6) {           // dispatch a small batch
            unsigned n = 1 + rnd(3);
            while (n--) {
                int fu = static_cast<int>(rnd(16));
                if (core.rsFree(static_cast<unsigned>(fu)) == 0)
                    continue;
                unsigned what = rnd(8);
                if (what < 4) {             // ALU / long-latency op
                    Op op = what == 0 ? Op::MUL
                            : what == 1 ? Op::DIV
                                        : Op::ADD;
                    make(op, fu);
                    linkProducer(0);
                } else if (what < 6) {      // load
                    DynInst &di = make(Op::LW, fu);
                    di.isLoad = true;
                    di.onCorrectPath = true;
                    di.effAddr = 0x1000 + rnd(16) * 4;
                    linkProducer(0);
                } else {                    // store
                    DynInst &di = make(Op::SW, fu);
                    di.isStore = true;
                    di.onCorrectPath = true;
                    di.effAddr = 0x1000 + rnd(16) * 4;
                    di.dataOperand = 1;
                    linkProducer(0);        // address operand
                    linkProducer(1);        // data operand
                }
                core.dispatch(*live.back());
            }
        } else if (action < 9) {    // advance one cycle
            ++now;
            core.tick(now);
        } else if (!live.empty()) {     // suffix squash
            unsigned j = rnd(static_cast<unsigned>(live.size()));
            // The window walk: squash the suffix oldest first, then
            // purge the core's store structures.
            for (std::size_t i = j; i < live.size(); ++i) {
                core.squash(*live[i]);
                dead[i] = true;
            }
            core.purgeSquashed();
        }
        const auto waiting = std::count_if(
            live.begin(), live.end(), [](const DynInst *di) {
                return di->startCycle == kNoCycle && !di->squashed();
            });
        ASSERT_EQ(core.occupancy(), static_cast<std::size_t>(waiting))
            << "step " << step;
        note(core.occupancy());
    }

    // Drain: tick well past any remaining latency.
    for (unsigned i = 0; i < 300; ++i)
        core.tick(++now);

    // Same-cycle notification order is not part of the timing
    // contract: pin the completions as a sorted set.
    std::sort(sc.completed.begin(), sc.completed.end());
    for (const auto &[cycle, s] : sc.completed) {
        note(cycle);
        note(s);
    }
    note(core.selectedCount());
    note(core.bypassDelayedCount());
    note(core.loadForwardsCount());
    EXPECT_EQ(digest::hex64(pin.value()), "df305e82f27c8cad");
    EXPECT_EQ(sc.completed.size(), 2381u);

    // Tear down: squash everything still in the core, then free every
    // instruction before the arena checks that all came back.
    for (DynInst *di : live)
        core.squash(*di);
    core.purgeSquashed();
    for (DynInst *di : live)
        freeDynInst(arena, di);
}

} // namespace
} // namespace tcfill
