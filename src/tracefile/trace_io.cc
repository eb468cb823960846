#include "tracefile/trace_io.hh"

#include <cstring>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace tcfill::tracefile
{

namespace
{

/** Upper bounds that make corrupt length fields fail fast instead of
 *  attempting multi-gigabyte allocations. */
constexpr std::uint64_t kMaxHeaderBytes = 1u << 20;
constexpr std::uint64_t kMaxFrameBytes = 1u << 26;

void
writeU32(std::ostream &os, std::uint32_t v)
{
    const char bytes[4] = {
        static_cast<char>(v & 0xff),
        static_cast<char>((v >> 8) & 0xff),
        static_cast<char>((v >> 16) & 0xff),
        static_cast<char>((v >> 24) & 0xff),
    };
    os.write(bytes, 4);
}

bool
readU32(std::istream &is, std::uint32_t &v)
{
    unsigned char bytes[4];
    if (!is.read(reinterpret_cast<char *>(bytes), 4))
        return false;
    v = static_cast<std::uint32_t>(bytes[0]) |
        static_cast<std::uint32_t>(bytes[1]) << 8 |
        static_cast<std::uint32_t>(bytes[2]) << 16 |
        static_cast<std::uint32_t>(bytes[3]) << 24;
    return true;
}

/** Stream-side varint; appends the raw bytes to @p raw when given. */
bool
readVarintStream(std::istream &is, std::uint64_t &v,
                 std::string *raw = nullptr)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        int c = is.get();
        if (c < 0)
            return false;
        if (raw)
            raw->push_back(static_cast<char>(c));
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return true;
    }
    return false;
}

void
putString(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out.append(s);
}

bool
getString(const std::string &buf, std::size_t &pos, std::string &s)
{
    std::uint64_t len = 0;
    if (!getVarint(buf, pos, len) || pos + len > buf.size())
        return false;
    s.assign(buf, pos, len);
    pos += len;
    return true;
}

/**
 * Why @p rec's successor contradicts its own instruction, or nullptr
 * when it agrees: a fall-through goes to pc + 4 not taken, a
 * conditional branch to its target when taken and to pc + 4 when
 * not, J/JAL to their target taken, and JR/JALR are taken (to any
 * register value).
 */
const char *
successorError(const ExecRecord &rec)
{
    const Instruction &in = rec.inst;
    const Addr fall = rec.pc + 4;
    if (in.isCondBranch()) {
        const Addr target = fall +
            (static_cast<Addr>(static_cast<std::int64_t>(in.imm)) << 2);
        return rec.nextPc == (rec.taken ? target : fall)
            ? nullptr
            : "branch record's nextPc contradicts its outcome";
    }
    if (in.op == Op::J || in.op == Op::JAL) {
        const Addr target =
            static_cast<Addr>(static_cast<std::uint32_t>(in.imm)) * 4;
        return rec.taken && rec.nextPc == target
            ? nullptr
            : "jump record does not go to its target";
    }
    if (in.isIndirect())
        return rec.taken ? nullptr : "indirect jump record is not taken";
    return !rec.taken && rec.nextPc == fall
        ? nullptr
        : "record leaves the fall-through path";
}

} // namespace

const char *
readStatusName(ReadStatus s)
{
    switch (s) {
      case ReadStatus::Ok: return "ok";
      case ReadStatus::Eof: return "eof";
      case ReadStatus::Truncated: return "truncated";
      case ReadStatus::CrcMismatch: return "crc mismatch";
      case ReadStatus::BadMagic: return "bad magic";
      case ReadStatus::BadVersion: return "version skew";
      case ReadStatus::Malformed: return "malformed";
    }
    return "unknown";
}

// --------------------------------------------------------------------
// TraceWriter
// --------------------------------------------------------------------

TraceWriter::TraceWriter(std::ostream &os, const TraceMeta &meta)
    : os_(os), expected_pc_(meta.entryPc)
{
    std::string payload;
    putString(payload, meta.workload);
    putString(payload, meta.config);
    putVarint(payload, meta.scale);
    putVarint(payload, meta.entryPc);
    putVarint(payload, meta.maxInsts);

    os_.write(kTraceMagic, sizeof(kTraceMagic));
    writeU32(os_, kTraceVersion);
    writeU32(os_, static_cast<std::uint32_t>(payload.size()));
    os_.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    writeU32(os_, crc32(payload.data(), payload.size()));
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::append(const ExecRecord &rec)
{
    panic_if(finished_, "TraceWriter::append() after finish()");
    panic_if(rec.seq != count_,
             "trace capture out of order: record seq %llu at index "
             "%llu (traces start at a fresh source)",
             static_cast<unsigned long long>(rec.seq),
             static_cast<unsigned long long>(count_));

    const bool has_ea = rec.effAddr != kNoAddr;
    std::uint8_t flags = 0;
    flags |= rec.taken ? 0x01 : 0;
    flags |= has_ea ? 0x02 : 0;

    const Instruction &in = rec.inst;
    buf_.push_back(static_cast<char>(flags));
    buf_.push_back(static_cast<char>(in.op));
    buf_.push_back(static_cast<char>(in.dest));
    buf_.push_back(static_cast<char>(in.src1));
    buf_.push_back(static_cast<char>(in.src2));
    buf_.push_back(static_cast<char>(in.src3));
    buf_.push_back(static_cast<char>(in.shamt));
    putZigzag(buf_, in.imm);
    putZigzag(buf_, static_cast<std::int64_t>(rec.pc - expected_pc_));
    putZigzag(buf_,
              static_cast<std::int64_t>(rec.nextPc - (rec.pc + 4)));
    if (has_ea) {
        putZigzag(buf_, static_cast<std::int64_t>(rec.effAddr -
                                                  prev_eff_addr_));
        prev_eff_addr_ = rec.effAddr;
    }

    expected_pc_ = rec.nextPc;
    ++count_;
    if (++buf_records_ >= kFrameRecordCap)
        flushFrame();
}

void
TraceWriter::flushFrame()
{
    if (buf_records_ == 0)
        return;
    std::string head;
    head.push_back(static_cast<char>(kFrameRecords));
    putVarint(head, buf_records_);
    putVarint(head, buf_.size());
    os_.write(head.data(), static_cast<std::streamsize>(head.size()));
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    writeU32(os_, crc32(buf_.data(), buf_.size()));
    buf_.clear();
    buf_records_ = 0;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    flushFrame();
    std::string total;
    putVarint(total, count_);
    os_.put(static_cast<char>(kFrameEnd));
    os_.write(total.data(),
              static_cast<std::streamsize>(total.size()));
    writeU32(os_, crc32(total.data(), total.size()));
    os_.flush();
    finished_ = true;
}

// --------------------------------------------------------------------
// TraceReader
// --------------------------------------------------------------------

TraceReader::TraceReader(std::istream &is) : is_(is), expected_pc_(0)
{
    parseHeader();
}

ReadStatus
TraceReader::fail(ReadStatus s, const std::string &detail)
{
    status_ = s;
    detail_ = detail;
    return s;
}

ReadStatus
TraceReader::parseHeader()
{
    char magic[sizeof(kTraceMagic)];
    if (!is_.read(magic, sizeof(magic)))
        return fail(ReadStatus::BadMagic, "file shorter than magic");
    if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        return fail(ReadStatus::BadMagic, "not a tcfill trace file");

    std::uint32_t version = 0;
    if (!readU32(is_, version))
        return fail(ReadStatus::Truncated, "truncated in version");
    if (version != kTraceVersion) {
        return fail(ReadStatus::BadVersion,
                    "trace is format v" + std::to_string(version) +
                        ", this build reads v" +
                        std::to_string(kTraceVersion));
    }

    std::uint32_t len = 0;
    if (!readU32(is_, len))
        return fail(ReadStatus::Truncated, "truncated in header length");
    if (len > kMaxHeaderBytes)
        return fail(ReadStatus::Malformed, "implausible header length");

    std::string payload(len, '\0');
    if (!is_.read(payload.data(), len))
        return fail(ReadStatus::Truncated, "truncated in header");
    std::uint32_t want_crc = 0;
    if (!readU32(is_, want_crc))
        return fail(ReadStatus::Truncated, "truncated in header CRC");
    if (crc32(payload.data(), payload.size()) != want_crc)
        return fail(ReadStatus::CrcMismatch, "header CRC mismatch");

    std::size_t pos = 0;
    std::uint64_t scale = 0, entry = 0, max_insts = 0;
    if (!getString(payload, pos, meta_.workload) ||
        !getString(payload, pos, meta_.config) ||
        !getVarint(payload, pos, scale) ||
        !getVarint(payload, pos, entry) ||
        !getVarint(payload, pos, max_insts) || pos != payload.size()) {
        return fail(ReadStatus::Malformed, "malformed header payload");
    }
    meta_.scale = static_cast<unsigned>(scale);
    meta_.entryPc = entry;
    meta_.maxInsts = max_insts;
    expected_pc_ = meta_.entryPc;
    return ReadStatus::Ok;
}

ReadStatus
TraceReader::loadFrame()
{
    const int tag = is_.get();
    if (tag < 0)
        return fail(ReadStatus::Truncated,
                    "stream ended without an end frame");

    if (tag == kFrameEnd) {
        std::string raw;
        std::uint64_t total = 0;
        if (!readVarintStream(is_, total, &raw))
            return fail(ReadStatus::Truncated, "truncated end frame");
        std::uint32_t want_crc = 0;
        if (!readU32(is_, want_crc))
            return fail(ReadStatus::Truncated,
                        "truncated end-frame CRC");
        if (crc32(raw.data(), raw.size()) != want_crc)
            return fail(ReadStatus::CrcMismatch,
                        "end-frame CRC mismatch");
        if (total != count_) {
            return fail(ReadStatus::Malformed,
                        "end frame promises " + std::to_string(total) +
                            " records, read " + std::to_string(count_));
        }
        total_ = total;
        status_ = ReadStatus::Eof;
        return ReadStatus::Eof;
    }

    if (tag != kFrameRecords)
        return fail(ReadStatus::Malformed, "unknown frame tag");

    std::uint64_t n = 0, len = 0;
    if (!readVarintStream(is_, n) || !readVarintStream(is_, len))
        return fail(ReadStatus::Truncated, "truncated frame header");
    if (n == 0 || len > kMaxFrameBytes)
        return fail(ReadStatus::Malformed, "implausible frame header");

    frame_.resize(len);
    if (!is_.read(frame_.data(), static_cast<std::streamsize>(len)))
        return fail(ReadStatus::Truncated, "truncated frame payload");
    std::uint32_t want_crc = 0;
    if (!readU32(is_, want_crc))
        return fail(ReadStatus::Truncated, "truncated frame CRC");
    if (crc32(frame_.data(), frame_.size()) != want_crc)
        return fail(ReadStatus::CrcMismatch, "frame CRC mismatch");

    frame_pos_ = 0;
    frame_left_ = n;
    return ReadStatus::Ok;
}

ReadStatus
TraceReader::next(ExecRecord &rec)
{
    if (status_ != ReadStatus::Ok)
        return status_;
    if (frame_left_ == 0) {
        ReadStatus s = loadFrame();
        if (s != ReadStatus::Ok)
            return s;
    }

    // Fixed prefix: flags, op, four registers, shamt.
    if (frame_pos_ + 7 > frame_.size())
        return fail(ReadStatus::Malformed, "record overruns frame");
    const auto flags = static_cast<std::uint8_t>(frame_[frame_pos_++]);
    const auto op_raw = static_cast<std::uint8_t>(frame_[frame_pos_++]);
    if (op_raw >= static_cast<std::uint8_t>(Op::NumOps))
        return fail(ReadStatus::Malformed, "record has invalid opcode");

    rec = ExecRecord{};
    rec.seq = count_;
    rec.inst.op = static_cast<Op>(op_raw);
    // The CRC catches accidents, not forgeries: a register index past
    // the architectural file would index the model's tables out of
    // bounds.
    for (RegIndex *r : {&rec.inst.dest, &rec.inst.src1, &rec.inst.src2,
                        &rec.inst.src3}) {
        *r = static_cast<RegIndex>(frame_[frame_pos_++]);
        if (*r != Instruction::kNoReg && *r >= kNumArchRegs)
            return fail(ReadStatus::Malformed,
                        "record has invalid register");
    }
    rec.inst.shamt = static_cast<std::uint8_t>(frame_[frame_pos_++]);

    std::int64_t imm = 0, pc_d = 0, next_d = 0;
    if (!getZigzag(frame_, frame_pos_, imm) ||
        !getZigzag(frame_, frame_pos_, pc_d) ||
        !getZigzag(frame_, frame_pos_, next_d)) {
        return fail(ReadStatus::Malformed, "record overruns frame");
    }
    // The committed path is contiguous: every record starts where the
    // previous one went (the first where the header's entry PC says).
    // A forged record off that path, or one whose successor
    // contradicts its instruction, would drive the model's fetch off
    // the path it is replaying.
    if (pc_d != 0)
        return fail(ReadStatus::Malformed,
                    "record pc is not the previous record's nextPc");
    rec.inst.imm = static_cast<std::int32_t>(imm);
    rec.taken = flags & 0x01;
    rec.pc = expected_pc_;
    rec.nextPc = rec.pc + 4 + static_cast<Addr>(next_d);
    if (const char *why = successorError(rec))
        return fail(ReadStatus::Malformed, why);
    if (flags & 0x02) {
        std::int64_t ea_d = 0;
        if (!getZigzag(frame_, frame_pos_, ea_d))
            return fail(ReadStatus::Malformed, "record overruns frame");
        rec.effAddr = prev_eff_addr_ + static_cast<Addr>(ea_d);
        prev_eff_addr_ = rec.effAddr;
    } else {
        rec.effAddr = kNoAddr;
    }

    expected_pc_ = rec.nextPc;
    ++count_;
    --frame_left_;
    if (frame_left_ == 0 && frame_pos_ != frame_.size())
        return fail(ReadStatus::Malformed, "frame has trailing bytes");
    return ReadStatus::Ok;
}

} // namespace tcfill::tracefile
