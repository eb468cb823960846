/**
 * @file
 * The fill unit's trace transformation passes (paper §4). Each pass
 * operates on a finalized TraceSegment in place. Passes must run in
 * the order: markDependencies, markMoves, reassociate,
 * createScaledAdds, placeInstructions — later passes consume the
 * dependency indices earlier passes maintain.
 */

#ifndef TCFILL_FILL_PASSES_HH
#define TCFILL_FILL_PASSES_HH

#include <cstdint>
#include <string>

#include "trace/segment.hh"

namespace tcfill
{

/** Counts of transformations runPasses() applied to one segment. */
struct PassCounts
{
    unsigned movesMarked = 0;
    unsigned reassociations = 0;
    unsigned scaledAdds = 0;
    unsigned deadElided = 0;
};

/** Options controlling the reassociation pass. */
struct ReassocOptions
{
    /**
     * Only reassociate pairs that cross a control-flow (block)
     * boundary — the paper's reported configuration, which isolates
     * the gain a static compiler cannot obtain (§4.3).
     */
    bool crossBlockOnly = true;

    /**
     * Also fold a producing ADDI into the displacement of a dependent
     * load/store (same 16-bit immediate format constraint).
     */
    bool foldMemDisplacement = true;
};

/** Which dynamic trace optimizations the fill unit performs. */
struct FillOptimizations
{
    bool markMoves = false;
    bool reassociate = false;
    bool scaledAdds = false;
    bool placement = false;
    /**
     * Extension (paper §5 future work): same-region dead-write
     * elision. Not part of the paper's evaluated configuration, so
     * not included in all().
     */
    bool deadCodeElim = false;
    ReassocOptions reassocOptions{};

    /** The paper's four evaluated optimizations. */
    static FillOptimizations
    all()
    {
        return {true, true, true, true, false, {}};
    }

    /** The four paper optimizations plus dead-write elision. */
    static FillOptimizations
    extended()
    {
        return {true, true, true, true, true, {}};
    }

    static FillOptimizations none() { return {}; }
};

// --------------------------------------------------------------------
// Pass masks
// --------------------------------------------------------------------

/**
 * Bitmask over the optional optimization passes, the unit a
 * FillPolicy decides in (fill/policy.hh). markDependencies is the
 * baseline pre-decode and has no bit: it always runs.
 */
using PassMask = std::uint8_t;

constexpr PassMask kPassMaskNone = 0;
constexpr PassMask kPassMarkMoves = 1u << 0;
constexpr PassMask kPassReassociate = 1u << 1;
constexpr PassMask kPassScaledAdds = 1u << 2;
constexpr PassMask kPassDeadCodeElim = 1u << 3;
constexpr PassMask kPassPlacement = 1u << 4;
/** The paper's four evaluated optimizations (FillOptimizations::all). */
constexpr PassMask kPassMaskAll =
    kPassMarkMoves | kPassReassociate | kPassScaledAdds | kPassPlacement;
/** all() plus dead-write elision (FillOptimizations::extended). */
constexpr PassMask kPassMaskExtended = kPassMaskAll | kPassDeadCodeElim;
/** Every pass bit that exists (bound for validation). */
constexpr PassMask kPassMaskEvery = kPassMaskExtended;

/** The mask equivalent of a legacy optimization-boolean struct. */
PassMask passMaskFromOpts(const FillOptimizations &opts);

/** The boolean struct a mask denotes (reassocOptions from @p opts). */
FillOptimizations optsFromPassMask(PassMask mask,
                                   const FillOptimizations &base = {});

/**
 * Canonical display name: "none", "all", "extended" or a '+'-joined
 * list in pipeline order ("moves+scaled+placement").
 */
std::string passMaskName(PassMask mask);

/**
 * Parse a mask token: "none", "all", "extended", a list of pass names
 * joined by '+' (as passMaskName() writes it) or ',' (as --opts takes
 * it), or a decimal bit value. Returns false with a reason in @p err
 * on an unknown token or an out-of-range value.
 */
bool parsePassMask(const std::string &token, PassMask &out,
                   std::string &err);

/** parsePassMask() for command lines: fatals on a bad token. */
PassMask parsePassMask(const std::string &token);

/**
 * Baseline dependency pre-decode (paper §4.1): computes srcDep[] /
 * liveOut for every instruction by scanning the segment in order.
 * Must be called first and re-establishes a consistent state.
 */
void markDependencies(TraceSegment &seg);

/**
 * Register-move marking (§4.2): flags move idioms and rewires
 * intra-segment consumers to depend on the move's source.
 * @return number of instructions marked.
 */
unsigned markMoves(TraceSegment &seg);

/**
 * Reassociation (§4.3): combines immediates of dependent ADDI pairs
 * (and optionally ADDI -> load/store displacements), removing one
 * step from the dependency chain. Skips combinations whose result
 * does not fit the 16-bit immediate field.
 * @return number of instructions rewritten.
 */
unsigned reassociate(TraceSegment &seg, const ReassocOptions &opts = {});

/**
 * Scaled-add creation (§4.4): collapses a short (1..3 bit) immediate
 * shift feeding an add or a memory operation into a scaled operand on
 * the consumer. The shift instruction remains in the segment.
 * @return number of consumers scaled.
 */
unsigned createScaledAdds(TraceSegment &seg);

/**
 * Persistent placement state: the cluster each architectural
 * register's most recent producer was steered to, carried across
 * segments by the fill unit so loop-carried (live-in) dependences
 * also benefit from cluster affinity. -1 = no hint.
 */
struct PlacementHints
{
    std::int8_t cluster[kNumArchRegs];

    PlacementHints() { reset(); }

    void
    reset()
    {
        for (auto &c : cluster)
            c = -1;
    }
};

/**
 * Instruction placement (§4.5): assigns each non-move instruction an
 * issue slot, preferring the slot's cluster when a source producer
 * was already placed there — either within this segment or, via
 * @p hints, in a recently built one (loop-carried affinity). With
 * the pass disabled, slot == original index (identity routing).
 *
 * @param slots_per_cluster functional units per cluster (paper: 4).
 * @param num_slots total issue slots (paper: 16).
 * @param hints optional persistent per-register cluster state,
 *        updated as this segment is placed.
 */
void placeInstructions(TraceSegment &seg, unsigned num_slots = 16,
                       unsigned slots_per_cluster = 4,
                       PlacementHints *hints = nullptr);

/** Reset every slot to the identity mapping (baseline routing). */
void placeIdentity(TraceSegment &seg);

/**
 * Dead-write elision — the paper's §5 future-work extension, in its
 * provably safe form: an instruction is elided when its destination
 * is overwritten later in the *same control-flow region* with no
 * intervening reader (checked via the dependency indices, so consumers
 * rewired away by earlier passes count as removed). Same-region pairs
 * can never be split by a partial (early-exit) execution of the line,
 * so no recovery machinery is needed. Memory, control and serializing
 * instructions are never elided; marked moves are already free.
 * Run after move marking / reassociation / scaled adds (which free up
 * consumers, e.g. the leftover shift of a collapsed scaled add) and
 * before placement (elided instructions take no issue slot).
 * @return number of instructions elided.
 */
unsigned eliminateDeadWrites(TraceSegment &seg);

/** Operand-slot access helpers shared by passes and the core. */
RegIndex getSrcReg(const Instruction &inst, unsigned slot);
void setSrcReg(Instruction &inst, unsigned slot, RegIndex reg);

/**
 * Check a segment's dependency indices for internal consistency
 * (every srcDep points at an earlier instruction that writes the
 * operand's register, unless rewritten). Used by tests and debug
 * builds.
 */
bool depsConsistent(const TraceSegment &seg);

/**
 * The fill unit's pass sequence over a finalized segment (paper §4).
 * markDependencies is the baseline pre-decode and always runs first;
 * then each optimization @p mask enables runs in the fixed legal
 * order: markMoves, reassociate, createScaledAdds,
 * eliminateDeadWrites, placeInstructions (placeIdentity when
 * placement is off).
 * @return the transforms each pass applied to @p seg.
 */
PassCounts runPasses(TraceSegment &seg, PassMask mask,
                     const ReassocOptions &reassoc,
                     PlacementHints *hints);

} // namespace tcfill

#endif // TCFILL_FILL_PASSES_HH
