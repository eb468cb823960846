/**
 * @file
 * Dynamic (in-flight) instruction state for the timing model.
 *
 * DynInstPtr is an intrusive reference-counted smart pointer with a
 * deliberately NON-atomic count: every DynInst is owned by exactly one
 * Processor and never crosses a thread boundary, so the count needs no
 * synchronization. (SimRunner parallelism is between Processors, never
 * inside one.) This matters because copying instruction handles is the
 * hottest pointer traffic in the simulator, and linking the thread
 * runtime would otherwise force shared_ptr's refcounts to atomic RMW
 * ops on the whole fetch/issue/retire path.
 */

#ifndef TCFILL_UARCH_DYN_INST_HH
#define TCFILL_UARCH_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "uarch/inst_pool.hh"

namespace tcfill
{

struct DynInst;

/** "Not in any scheduler array" sentinel for the index fields below. */
inline constexpr std::uint32_t kNoRsIndex = ~std::uint32_t(0);

/**
 * Intrusive refcounted handle to a DynInst. Semantics match
 * shared_ptr (last reference destroys the object), but the count is a
 * plain integer and destruction returns pooled blocks to the owning
 * SlabArena instead of the heap.
 */
class DynInstPtr
{
  public:
    DynInstPtr() = default;
    DynInstPtr(std::nullptr_t) {}
    /** Wrap a freshly constructed instruction (see allocDynInst). */
    explicit DynInstPtr(DynInst *p) : p_(p) { retain(); }

    DynInstPtr(const DynInstPtr &o) : p_(o.p_) { retain(); }
    DynInstPtr(DynInstPtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    DynInstPtr &
    operator=(const DynInstPtr &o)
    {
        DynInstPtr tmp(o);
        std::swap(p_, tmp.p_);
        return *this;
    }

    DynInstPtr &
    operator=(DynInstPtr &&o) noexcept
    {
        std::swap(p_, o.p_);
        return *this;
    }

    DynInstPtr &
    operator=(std::nullptr_t)
    {
        release();
        return *this;
    }

    ~DynInstPtr() { release(); }

    DynInst *get() const { return p_; }
    DynInst &operator*() const { return *p_; }
    DynInst *operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }

    bool operator==(const DynInstPtr &o) const { return p_ == o.p_; }
    bool operator==(std::nullptr_t) const { return p_ == nullptr; }

  private:
    void retain();
    void release();

    DynInst *p_ = nullptr;
};

/** Lifecycle of a dynamic instruction in the window. */
enum class InstPhase : std::uint8_t
{
    Waiting,        ///< in a reservation station
    Executing,      ///< selected, producing its result
    Complete,       ///< result available / done
    Squashed,       ///< cancelled by misprediction recovery
};

/**
 * One renamed source operand. Either the value is (or will be) read
 * from the register file (producer == nullptr, available at
 * @c rfAvail with no bypass penalty), or it is produced by an
 * in-flight instruction and arrives over the bypass network
 * (+1 cycle across clusters).
 */
struct Operand
{
    DynInstPtr producer;
    Cycle rfAvail = 0;
};

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
    // producer's wake list and is armed into its FU's ready queue
    // when the last subscription fires.
    // Lists hold raw pointers: a producer always fires (or is
    // squashed) before it retires, and the window releases younger
    // consumers only after older producers, so every listed consumer
    // outlives the walk (see DESIGN.md §13 for the invariant).
    /**
     * Consumers to wake when this result's timing becomes known;
     * (consumer, operand-index) packed into the pointer's low bits.
     */
    std::uintptr_t wakeHead = 0;
    /** Next wake-list links, one per source-operand slot. */
    std::uintptr_t wakeNext[3] = {0, 0, 0};
    /** Stores: loads parked on this store by the memory scheduler. */
    DynInst *memWaiterHead = nullptr;
    DynInst *memWaiterNext = nullptr;
    /** Earliest select cycle once every operand's timing is known. */
    Cycle readyCycle = 0;
    /** Station / ready-queue slots (swap-with-back maintenance). */
    std::uint32_t stationIdx = kNoRsIndex;
    std::uint32_t readyIdx = kNoRsIndex;
    /** Producer wakeups still outstanding before this can arm. */
    std::uint8_t pendingOps = 0;

    // ---- stats ---------------------------------------------------------
    /** Last-arriving operand was delayed by cross-cluster bypass. */
    bool bypassDelayed = false;
    /** Move idiom in the architectural stream (optimized or not). */
    bool moveIdiom = false;

    // ---- intrusive lifetime (managed by DynInstPtr) ---------------------
    /** Reference count; non-atomic — see the file comment. */
    std::uint32_t ptrRefs = 0;
    /** Owning arena (set by allocDynInst). */
    SlabArena *ptrArena = nullptr;

    unsigned
    cluster(unsigned fus_per_cluster) const
    {
        return fu < 0 ? 0 : static_cast<unsigned>(fu) / fus_per_cluster;
    }

    bool complete() const { return phase == InstPhase::Complete; }
    bool squashed() const { return phase == InstPhase::Squashed; }
};

inline void
DynInstPtr::retain()
{
    if (p_)
        ++p_->ptrRefs;
}

/**
 * Destroy an instruction whose last reference dropped, returning its
 * block to the owning arena. Out of line: DynInstPtr::release() runs
 * about 11 times per retired instruction from dozens of call sites,
 * and inlining only its decrement-and-test keeps those sites small.
 */
void destroyDynInst(DynInst *p);

inline void
DynInstPtr::release()
{
    if (p_ && --p_->ptrRefs == 0)
        destroyDynInst(p_);
    p_ = nullptr;
}

/**
 * Allocate a DynInst from @p arena. The block returns to the arena's
 * free list when the last DynInstPtr drops — for an instruction, at or
 * shortly after retirement, once no Operand, window slot or resolution
 * event still references it.
 */
inline DynInstPtr
allocDynInst(SlabArena &arena)
{
    void *mem = arena.allocate(sizeof(DynInst), alignof(DynInst));
    DynInst *p = new (mem) DynInst();
    p->ptrArena = &arena;
    return DynInstPtr(p);
}

} // namespace tcfill

#endif // TCFILL_UARCH_DYN_INST_HH
