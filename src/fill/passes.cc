#include "fill/passes.hh"

#include <array>
#include <charconv>

#include "common/logging.hh"

namespace tcfill
{

namespace
{

/** Pointer to the k-th used source-register field of @p inst. */
RegIndex *
srcField(Instruction &inst, unsigned slot)
{
    std::array<RegIndex *, 3> fields{&inst.src1, &inst.src2, &inst.src3};
    unsigned seen = 0;
    for (RegIndex *f : fields) {
        if (*f != Instruction::kNoReg) {
            if (seen == slot)
                return f;
            ++seen;
        }
    }
    return nullptr;
}

} // namespace

RegIndex
getSrcReg(const Instruction &inst, unsigned slot)
{
    return inst.srcReg(slot);
}

void
setSrcReg(Instruction &inst, unsigned slot, RegIndex reg)
{
    RegIndex *f = srcField(inst, slot);
    panic_if(f == nullptr, "setSrcReg: slot %u not present", slot);
    *f = reg;
}

void
markDependencies(TraceSegment &seg)
{
    // lastWriter[r]: index of the most recent instruction writing r.
    std::array<std::int8_t, kNumArchRegs> last_writer;
    last_writer.fill(kDepLiveIn);

    for (std::size_t i = 0; i < seg.insts.size(); ++i) {
        TraceInst &ti = seg.insts[i];
        const unsigned nsrcs = ti.inst.numSrcs();
        for (unsigned k = 0; k < 3; ++k)
            ti.srcDep[k] = kDepLiveIn;
        for (unsigned k = 0; k < nsrcs; ++k) {
            RegIndex r = ti.inst.srcReg(k);
            if (r != kRegZero)
                ti.srcDep[k] = last_writer[r];
        }
        if (ti.inst.hasDest())
            last_writer[ti.inst.dest] = static_cast<std::int8_t>(i);
        ti.liveOut = true;
    }

    // Live-out: destination not overwritten later within the segment.
    for (std::size_t i = 0; i < seg.insts.size(); ++i) {
        TraceInst &ti = seg.insts[i];
        if (!ti.inst.hasDest())
            continue;
        ti.liveOut =
            last_writer[ti.inst.dest] == static_cast<std::int8_t>(i);
    }
}

unsigned
markMoves(TraceSegment &seg)
{
    unsigned marked = 0;
    for (std::size_t i = 0; i < seg.insts.size(); ++i) {
        TraceInst &ti = seg.insts[i];
        auto ms = moveSource(ti.inst);
        if (!ms)
            continue;

        // Find the operand slot holding the copied register.
        const unsigned nsrcs = ti.inst.numSrcs();
        std::int8_t src_dep = kDepLiveIn;
        for (unsigned k = 0; k < nsrcs; ++k) {
            if (ti.inst.srcReg(k) == *ms) {
                src_dep = ti.srcDep[k];
                break;
            }
        }

        ti.isMove = true;
        ti.moveSrc = *ms;
        ti.moveSrcDep = src_dep;
        ++marked;

        // Rewire intra-segment consumers of this move to the move's
        // source (paper §4.2), so they need not wait for the rename
        // read of the move's mapping.
        for (std::size_t j = i + 1; j < seg.insts.size(); ++j) {
            TraceInst &c = seg.insts[j];
            const unsigned cn = c.inst.numSrcs();
            for (unsigned k = 0; k < cn; ++k) {
                if (c.srcDep[k] == static_cast<std::int8_t>(i)) {
                    setSrcReg(c.inst, k, *ms);
                    c.srcDep[k] = src_dep;
                }
            }
        }
    }
    return marked;
}

unsigned
reassociate(TraceSegment &seg, const ReassocOptions &opts)
{
    unsigned rewritten = 0;
    for (std::size_t j = 0; j < seg.insts.size(); ++j) {
        TraceInst &tj = seg.insts[j];
        if (tj.isMove)
            continue;

        const bool is_addi = tj.inst.op == Op::ADDI;
        const bool is_disp_mem = opts.foldMemDisplacement &&
            (tj.inst.isLoad() || tj.inst.isStore()) &&
            tj.inst.op != Op::LWX && tj.inst.op != Op::SWX;
        if (!is_addi && !is_disp_mem)
            continue;

        // Both forms take the candidate producer via operand slot 0
        // (ADDI's single source / the memory op's base register).
        std::int8_t d = tj.srcDep[0];
        if (d < 0)
            continue;
        TraceInst &tp = seg.insts[static_cast<std::size_t>(d)];
        if (tp.inst.op != Op::ADDI || tp.isMove)
            continue;
        if (opts.crossBlockOnly && tp.cfRegion == tj.cfRegion)
            continue;

        const std::int64_t sum =
            static_cast<std::int64_t>(tp.inst.imm) + tj.inst.imm;
        if (sum < -32768 || sum > 32767)
            continue;   // would not fit the 16-bit immediate field

        setSrcReg(tj.inst, 0, tp.inst.src1);
        tj.inst.imm = static_cast<std::int32_t>(sum);
        tj.srcDep[0] = tp.srcDep[0];
        tj.reassociated = true;
        ++rewritten;
    }
    return rewritten;
}

namespace
{

/** Candidate operand slots for scaled-operand absorption, by op. */
unsigned
scaleCandidates(Op op, unsigned out[2])
{
    switch (op) {
      case Op::ADD:
        out[0] = 0; out[1] = 1;
        return 2;
      case Op::LWX:
        out[0] = 1; out[1] = 0;     // prefer the index operand
        return 2;
      case Op::SWX:
        out[0] = 1;                 // index only; never the store data
        return 1;
      case Op::LW: case Op::LB: case Op::LBU: case Op::LH: case Op::LHU:
      case Op::SW: case Op::SB: case Op::SH:
        out[0] = 0;                 // base register
        return 1;
      default:
        return 0;
    }
}

} // namespace

unsigned
createScaledAdds(TraceSegment &seg)
{
    unsigned scaled = 0;
    for (std::size_t j = 0; j < seg.insts.size(); ++j) {
        TraceInst &tj = seg.insts[j];
        if (tj.isMove || tj.hasScale())
            continue;

        unsigned cand[2];
        unsigned ncand = scaleCandidates(tj.inst.op, cand);
        for (unsigned ci = 0; ci < ncand; ++ci) {
            unsigned k = cand[ci];
            if (k >= tj.inst.numSrcs())
                continue;
            std::int8_t d = tj.srcDep[k];
            if (d < 0)
                continue;
            TraceInst &tp = seg.insts[static_cast<std::size_t>(d)];
            if (tp.inst.op != Op::SLLI || tp.isMove)
                continue;
            if (tp.inst.shamt < 1 || tp.inst.shamt > 3)
                continue;   // limit ALU path to ~2 gate delays (§4.4)

            setSrcReg(tj.inst, k, tp.inst.src1);
            tj.srcDep[k] = tp.srcDep[0];
            tj.scaledSrcIdx = static_cast<std::uint8_t>(k);
            tj.scaleAmt = tp.inst.shamt;
            ++scaled;
            break;
        }
    }
    return scaled;
}

void
placeInstructions(TraceSegment &seg, unsigned num_slots,
                  unsigned slots_per_cluster, PlacementHints *hints)
{
    panic_if(slots_per_cluster == 0, "placement: zero cluster width");
    const std::size_t n = seg.insts.size();
    panic_if(n > num_slots, "placement: segment larger than slot count");

    // Cluster each instruction was placed into; -1 = unplaced.
    std::array<int, kSegmentMaxInsts> placed_cluster;
    placed_cluster.fill(-1);
    std::array<bool, kSegmentMaxInsts> placed{};

    // Marked moves never reach a functional unit: park them at their
    // original index, exclude them from slot competition, and
    // propagate the cluster affinity of the value they alias.
    std::size_t remaining = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (seg.insts[i].isMove || seg.insts[i].deadElided) {
            seg.insts[i].slot = seg.insts[i].origIdx & 15;
            placed[i] = true;
        } else {
            ++remaining;
        }
    }

    const unsigned num_clusters = num_slots / slots_per_cluster;

    // Dependence depth of each instruction within the segment: the
    // length of its longest producer chain. The operand on the
    // deepest chain is the one that arrives last, so the cluster of
    // *that* producer is where the instruction wants to execute.
    std::array<unsigned, kSegmentMaxInsts> depth{};
    for (std::size_t i = 0; i < n; ++i) {
        const TraceInst &ti = seg.insts[i];
        const unsigned nsrcs = ti.inst.numSrcs();
        unsigned d = 0;
        for (unsigned k = 0; k < nsrcs; ++k) {
            if (ti.srcDep[k] >= 0) {
                d = std::max(d,
                    depth[static_cast<std::size_t>(ti.srcDep[k])] + 1);
            }
        }
        depth[i] = d;
    }

    // Free slots per cluster (lowest slot first within a cluster).
    std::array<unsigned, 16> used_in_cluster{};

    auto slot_in = [&](unsigned cl) -> int {
        if (used_in_cluster[cl] >= slots_per_cluster)
            return -1;
        return static_cast<int>(cl * slots_per_cluster +
                                used_in_cluster[cl]);
    };

    // Instruction-major placement: walk the segment in program order
    // and steer each instruction to the cluster of its last-arriving
    // (deepest-chain) producer — placed in this segment, or known
    // from a recent one via the persistent hints.
    for (std::size_t i = 0; i < n; ++i) {
        if (placed[i])
            continue;
        const TraceInst &ti = seg.insts[i];
        const unsigned nsrcs = ti.inst.numSrcs();

        int want = -1;
        unsigned best_depth = 0;
        for (unsigned k = 0; k < nsrcs; ++k) {
            std::int8_t d = ti.srcDep[k];
            if (d >= 0) {
                auto di = static_cast<std::size_t>(d);
                if (placed_cluster[di] >= 0 &&
                    depth[di] + 1 >= best_depth) {
                    best_depth = depth[di] + 1;
                    want = placed_cluster[di];
                }
            } else if (hints && best_depth == 0) {
                RegIndex r = ti.inst.srcReg(k);
                if (r != kRegZero && hints->cluster[r] >= 0 &&
                    want < 0) {
                    want = hints->cluster[r];
                }
            }
        }

        int s = want >= 0 ? slot_in(static_cast<unsigned>(want)) : -1;
        if (s < 0 && i > 0 && placed_cluster[i - 1] >= 0) {
            // Program-order locality: neighbors are often related even
            // when the segment carries no explicit dependence (the
            // identity routing's accidental strength).
            s = slot_in(static_cast<unsigned>(placed_cluster[i - 1]));
        }
        if (s < 0) {
            // Fall back to the emptiest cluster (lowest index wins).
            unsigned best_cl = 0;
            for (unsigned cl = 1; cl < num_clusters; ++cl) {
                if (used_in_cluster[cl] < used_in_cluster[best_cl])
                    best_cl = cl;
            }
            s = slot_in(best_cl);
        }
        panic_if(s < 0, "placement: no free slot");

        seg.insts[i].slot = static_cast<std::uint8_t>(s);
        placed[i] = true;
        placed_cluster[i] =
            static_cast<int>(static_cast<unsigned>(s) /
                             slots_per_cluster);
        ++used_in_cluster[static_cast<unsigned>(placed_cluster[i])];
        --remaining;
    }
    panic_if(remaining != 0, "placement: instructions left unplaced");

    if (hints) {
        // Record where each register's newest value now lives.
        for (std::size_t i = 0; i < n; ++i) {
            const TraceInst &ti = seg.insts[i];
            if (!ti.inst.hasDest())
                continue;
            if (ti.isMove) {
                hints->cluster[ti.inst.dest] =
                    ti.moveSrc != Instruction::kNoReg &&
                            ti.moveSrc != kRegZero
                        ? hints->cluster[ti.moveSrc]
                        : static_cast<std::int8_t>(-1);
            } else {
                hints->cluster[ti.inst.dest] = placed_cluster[i] >= 0
                    ? static_cast<std::int8_t>(placed_cluster[i])
                    : static_cast<std::int8_t>(-1);
            }
        }
    }
}

unsigned
eliminateDeadWrites(TraceSegment &seg)
{
    unsigned elided = 0;
    const std::size_t n = seg.insts.size();
    for (std::size_t i = 0; i < n; ++i) {
        TraceInst &ti = seg.insts[i];
        if (!ti.inst.hasDest() || ti.isMove || ti.deadElided)
            continue;
        if (ti.inst.isMem() || ti.inst.isControl() ||
            ti.inst.isSerializing()) {
            continue;
        }

        // Find an overwriter of the destination within the same
        // control-flow region.
        // A marked move also overwrites (it re-aliases the mapping),
        // and an elided instruction's own same-region overwriter
        // transitively covers it, so any destination match counts.
        std::size_t j = n;
        for (std::size_t k = i + 1;
             k < n && seg.insts[k].cfRegion == ti.cfRegion; ++k) {
            if (seg.insts[k].inst.hasDest() &&
                seg.insts[k].inst.dest == ti.inst.dest) {
                j = k;
                break;
            }
        }
        if (j == n)
            continue;

        // No surviving consumer may reference instruction i. (A
        // marked move aliasing i still propagates its value, so it
        // counts as a reader.)
        bool read = false;
        for (std::size_t k = i + 1; k < n && !read; ++k) {
            const TraceInst &tk = seg.insts[k];
            const unsigned nsrcs = tk.inst.numSrcs();
            for (unsigned s = 0; s < nsrcs; ++s) {
                if (tk.srcDep[s] == static_cast<std::int8_t>(i)) {
                    read = true;
                    break;
                }
            }
            if (tk.isMove &&
                tk.moveSrcDep == static_cast<std::int8_t>(i)) {
                read = true;
            }
        }
        if (read)
            continue;

        ti.deadElided = true;
        ++elided;
    }
    return elided;
}

void
placeIdentity(TraceSegment &seg)
{
    for (auto &ti : seg.insts)
        ti.slot = ti.origIdx & 15;
}

PassMask
passMaskFromOpts(const FillOptimizations &opts)
{
    PassMask m = kPassMaskNone;
    if (opts.markMoves)
        m |= kPassMarkMoves;
    if (opts.reassociate)
        m |= kPassReassociate;
    if (opts.scaledAdds)
        m |= kPassScaledAdds;
    if (opts.deadCodeElim)
        m |= kPassDeadCodeElim;
    if (opts.placement)
        m |= kPassPlacement;
    return m;
}

FillOptimizations
optsFromPassMask(PassMask mask, const FillOptimizations &base)
{
    FillOptimizations o = base;
    o.markMoves = mask & kPassMarkMoves;
    o.reassociate = mask & kPassReassociate;
    o.scaledAdds = mask & kPassScaledAdds;
    o.deadCodeElim = mask & kPassDeadCodeElim;
    o.placement = mask & kPassPlacement;
    return o;
}

std::string
passMaskName(PassMask mask)
{
    if (mask == kPassMaskNone)
        return "none";
    if (mask == kPassMaskAll)
        return "all";
    if (mask == kPassMaskExtended)
        return "extended";
    static const struct { PassMask bit; const char *name; } kBits[] = {
        {kPassMarkMoves, "moves"},     {kPassReassociate, "reassoc"},
        {kPassScaledAdds, "scaled"},   {kPassDeadCodeElim, "dce"},
        {kPassPlacement, "placement"},
    };
    std::string out;
    for (const auto &b : kBits) {
        if (!(mask & b.bit))
            continue;
        if (!out.empty())
            out += '+';
        out += b.name;
    }
    return out;
}

bool
parsePassMask(const std::string &token, PassMask &out, std::string &err)
{
    if (token == "none") {
        out = kPassMaskNone;
        return true;
    }
    if (token == "all") {
        out = kPassMaskAll;
        return true;
    }
    if (token == "extended") {
        out = kPassMaskExtended;
        return true;
    }
    if (!token.empty() && token.find_first_not_of("0123456789") ==
                              std::string::npos) {
        unsigned long long v = 0;
        const char *end = token.data() + token.size();
        if (std::from_chars(token.data(), end, v).ec != std::errc() ||
            v > kPassMaskEvery) {
            err = "pass mask value out of range: " + token;
            return false;
        }
        out = static_cast<PassMask>(v);
        return true;
    }
    PassMask m = kPassMaskNone;
    std::size_t pos = 0;
    while (pos <= token.size()) {
        std::size_t end = token.find_first_of("+,", pos);
        if (end == std::string::npos)
            end = token.size();
        const std::string part = token.substr(pos, end - pos);
        if (part == "moves")
            m |= kPassMarkMoves;
        else if (part == "reassoc")
            m |= kPassReassociate;
        else if (part == "scaled")
            m |= kPassScaledAdds;
        else if (part == "dce")
            m |= kPassDeadCodeElim;
        else if (part == "placement")
            m |= kPassPlacement;
        else {
            err = "unknown pass mask token '" + part + "' in '" + token +
                "'";
            return false;
        }
        pos = end + 1;
    }
    out = m;
    return true;
}

PassMask
parsePassMask(const std::string &token)
{
    PassMask m = kPassMaskNone;
    std::string err;
    fatal_if(!parsePassMask(token, m, err), "%s", err.c_str());
    return m;
}

PassCounts
runPasses(TraceSegment &seg, PassMask mask, const ReassocOptions &reassoc,
          PlacementHints *hints)
{
    PassCounts applied;
    markDependencies(seg);
    if (mask & kPassMarkMoves)
        applied.movesMarked = markMoves(seg);
    if (mask & kPassReassociate)
        applied.reassociations = reassociate(seg, reassoc);
    if (mask & kPassScaledAdds)
        applied.scaledAdds = createScaledAdds(seg);
    if (mask & kPassDeadCodeElim)
        applied.deadElided = eliminateDeadWrites(seg);
    if (mask & kPassPlacement)
        placeInstructions(seg, kSegmentMaxInsts, 4, hints);
    else
        placeIdentity(seg);
    return applied;
}

bool
depsConsistent(const TraceSegment &seg)
{
    for (std::size_t i = 0; i < seg.insts.size(); ++i) {
        const TraceInst &ti = seg.insts[i];
        const unsigned nsrcs = ti.inst.numSrcs();
        for (unsigned k = 0; k < nsrcs; ++k) {
            std::int8_t d = ti.srcDep[k];
            if (d == kDepLiveIn)
                continue;
            if (d < 0 || static_cast<std::size_t>(d) >= i)
                return false;
            const TraceInst &tp = seg.insts[static_cast<std::size_t>(d)];
            if (!tp.inst.hasDest())
                return false;
            if (tp.inst.dest != ti.inst.srcReg(k))
                return false;
        }
    }
    return true;
}

} // namespace tcfill
