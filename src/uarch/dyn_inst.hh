/**
 * @file
 * Dynamic (in-flight) instruction state for the timing model.
 *
 * Ownership (DESIGN.md §13): fetch allocates every DynInst from the
 * Processor's SlabArena (allocDynInst) and hands it to the fetch
 * latch; dispatch moves it into the InstWindow, which owns it until
 * its slot pops. Its block is freed explicitly (freeDynInst) in
 * exactly two places: when its window slot pops at retire (as a
 * commit or as a squashed slot), and at Processor teardown (window
 * and fetch latch). Every other holder keeps a raw
 * pointer that the ownership rules keep valid, or a seq. The one
 * edge that outlives its producer, a renamed source operand, is a
 * value: an Operand is sealed to {completion cycle, FU} as soon as
 * its producer's timing is known, so nothing reads a freed block.
 */

#ifndef TCFILL_UARCH_DYN_INST_HH
#define TCFILL_UARCH_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <new>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "uarch/inst_pool.hh"

namespace tcfill
{

struct DynInst;

/** "Not in a ready queue" sentinel for DynInst::readyIdx. */
inline constexpr std::uint32_t kNoRsIndex = ~std::uint32_t(0);

/** Lifecycle of a dynamic instruction in the window. */
enum class InstPhase : std::uint8_t
{
    Waiting,        ///< in a reservation station
    Executing,      ///< selected, producing its result
    Complete,       ///< result available / done
    Squashed,       ///< cancelled by misprediction recovery
};

/**
 * One renamed source operand. It is *unsealed* while it names an
 * in-flight producer whose completion cycle is not yet known, and
 * *sealed* once that cycle is: then it holds the cycle and the
 * producing functional unit, whose cluster decides the cross-cluster
 * bypass cycle. A register-file value is sealed from the start at
 * {0, no FU}. Every operand is sealed before its producer can retire
 * (DESIGN.md §13), so none outlives the block it names.
 */
struct Operand
{
    /** Cycle the value leaves its producer; kNoCycle while unsealed. */
    Cycle cycle = 0;
    union
    {
        DynInst *producer;      ///< unsealed: the in-flight producer
        std::int32_t fu = -1;   ///< sealed: producing FU, -1 = none
    };

    /** An unsealed operand naming @p p. */
    static Operand
    of(DynInst &p)
    {
        Operand op;
        op.cycle = kNoCycle;
        op.producer = &p;
        return op;
    }

    bool sealed() const { return cycle != kNoCycle; }

    /** True when this operand is unsealed and names @p p. */
    bool names(const DynInst &p) const
    {
        return !sealed() && producer == &p;
    }

    /** Seal to @p p's known timing: its completion cycle and FU. */
    inline void seal(const DynInst &p);
};

static_assert(sizeof(Operand) == 16, "an Operand is a cycle and one word");

/** Where an instruction's bits came from. */
enum class FetchSource : std::uint8_t
{
    TraceCache,
    InstCache,
};

/** A dynamic instruction in flight. */
struct DynInst
{
    InstSeqNum seq = 0;
    Addr pc = 0;
    /**
     * Possibly fill-unit-rewritten form (dataflow topology); the
     * architectural form is the committed-path record's.
     */
    Instruction inst;
    /** Committed next PC (correct-path instructions only). */
    Addr nextPc = 0;
    FetchSource source = FetchSource::InstCache;
    InstPhase phase = InstPhase::Waiting;

    // ---- issue-time assignment ---------------------------------------
    int fu = -1;                        ///< functional unit (slot)
    unsigned numSrcs = 0;
    Operand src[3];
    /** For stores: operand index of the store-data register. */
    int dataOperand = -1;

    // ---- trace metadata ------------------------------------------------
    bool moveMarked = false;            ///< completes in rename
    /** Dead write elided by the fill unit: never executes. */
    bool elided = false;
    /** Architectural source register of a marked move. */
    RegIndex moveSrcReg = 0;
    /** Intra-line dependency of the move's source (-1 = live-in). */
    std::int8_t moveSrcDep = -1;
    /** Operand the move's destination was aliased to (rename repair). */
    Operand moveAlias;
    /** Pre-decoded intra-line dependency indices (trace lines). */
    std::int8_t lineDep[3] = {-1, -1, -1};
    /** Index of this instruction within its fetched line. */
    std::uint8_t lineIdx = 0;
    /** First instruction of an I-cache fetch line (a miss target). */
    bool missLineStart = false;
    bool reassociated = false;
    bool scaled = false;

    // ---- path / inactive-issue state -----------------------------------
    bool onCorrectPath = true;
    bool inactive = false;              ///< issued past the predicted exit

    // ---- control flow ----------------------------------------------------
    bool isBranch = false;
    bool mispredicted = false;          ///< resolves against the prediction
    Addr redirectPc = 0;                ///< fetch target after resolution
    /** Predictor slot (PHT index) used at fetch; -1 = none/promoted. */
    int predSlot = -1;
    bool promotedBranch = false;
    bool taken = false;                 ///< actual outcome
    /**
     * Inactive-issue rescue: on resolution, instructions with seq in
     * [rescueLo, rescueHi) were issued inactively along the correct
     * path and survive the recovery squash.
     */
    InstSeqNum rescueLo = 0;
    InstSeqNum rescueHi = 0;
    /**
     * Inactive-issue discard: if the prediction was *correct*, the
     * inactive instructions with seq in [discardLo, discardHi) are
     * thrown away when this branch resolves.
     */
    InstSeqNum discardLo = 0;
    InstSeqNum discardHi = 0;

    // ---- memory ------------------------------------------------------------
    bool isLoad = false;
    bool isStore = false;
    Addr effAddr = kNoAddr;
    Cycle addrKnown = kNoCycle;         ///< stores: AGEN completion

    // ---- timing -----------------------------------------------------------
    Cycle fetchCycle = 0;
    Cycle issueCycle = kNoCycle;
    Cycle startCycle = kNoCycle;
    Cycle completeCycle = kNoCycle;
    std::uint8_t latency = 1;

    // ---- wakeup scheduler bookkeeping (ExecCore) ------------------------
    // Producer-driven wakeup: a consumer whose producer's completion
    // cycle is still unknown at dispatch links itself onto the
    // producer's wake list; the walk seals the operand and arms the
    // consumer into its FU's ready queue when the last subscription
    // fires. Lists hold raw pointers: a producer's list is walked only
    // while the producer is in the window, and every listed consumer
    // is younger, so still in the window too (DESIGN.md §13).
    /**
     * Consumers to wake when this result's timing becomes known;
     * (consumer, operand slot) packed into the pointer's low bits.
     */
    std::uintptr_t wakeHead = 0;
    /**
     * Next wake-list links, one per source operand plus
     * kAliasWakeSlot for a marked move's moveAlias.
     */
    std::uintptr_t wakeNext[4] = {0, 0, 0, 0};
    /** Stores: loads parked on this store by the memory scheduler. */
    DynInst *memWaiterHead = nullptr;
    DynInst *memWaiterNext = nullptr;
    /** Earliest select cycle once every operand's timing is known. */
    Cycle readyCycle = 0;
    /** Ready-queue slot (swap-with-back maintenance). */
    std::uint32_t readyIdx = kNoRsIndex;
    /** Producer wakeups still outstanding before this can arm. */
    std::uint8_t pendingOps = 0;
    /**
     * A rename-table alias entry once copied an operand naming this
     * instruction, so its retire seals every entry, not just its
     * destination's (RenameTable::sealRetired).
     */
    bool aliasMapped = false;

    // ---- stats ---------------------------------------------------------
    /** Last-arriving operand was delayed by cross-cluster bypass. */
    bool bypassDelayed = false;
    /** Move idiom in the architectural stream (optimized or not). */
    bool moveIdiom = false;

    bool complete() const { return phase == InstPhase::Complete; }
    bool squashed() const { return phase == InstPhase::Squashed; }
};

/** Wake-list slot of a marked move's moveAlias subscription. */
inline constexpr unsigned kAliasWakeSlot = 3;

inline void
Operand::seal(const DynInst &p)
{
    cycle = p.completeCycle;
    fu = p.fu;
}

/**
 * A default-constructed DynInst in a block of @p arena. The caller
 * owns it until it hands it on, and its last owner returns the block
 * with freeDynInst() (DESIGN.md §13).
 */
inline DynInst *
allocDynInst(SlabArena &arena)
{
    void *mem = arena.allocate(sizeof(DynInst), alignof(DynInst));
    return new (mem) DynInst();
}

/** Return @p di's block to @p arena; nothing may read it afterwards. */
inline void
freeDynInst(SlabArena &arena, DynInst *di)
{
    di->~DynInst();
    arena.deallocate(di);
}

} // namespace tcfill

#endif // TCFILL_UARCH_DYN_INST_HH
