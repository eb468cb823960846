/**
 * @file
 * TraceWriter / TraceReader: streaming capture and parsing of
 * tcfill-trace-v1 committed-trace files (layout in format.hh), plus
 * the RecordingSource tee that captures any CommitSource's stream as
 * it feeds the timing model.
 *
 * Record packing (inside a frame payload), per committed instruction:
 *
 *   flags     u8      bit0 taken, bit1 has-effAddr
 *   op        u8      semantic opcode
 *   dest/src1/src2/src3  u8 each (0xff = none)
 *   shamt     u8
 *   imm       zigzag varint
 *   pc        zigzag varint, delta from the previous record's nextPc
 *                     (the first record's from the header's entry
 *                     PC); the committed path makes it 0 — one byte —
 *                     and the reader refuses any other value
 *   nextPc    zigzag varint, delta from pc + 4 (0 for fall-through)
 *   effAddr   zigzag varint, delta from the previous effAddr
 *                     (present iff bit1 of flags)
 *
 * Sequence numbers are implicit: record i carries seq == i, matching
 * a fresh Executor. ~4-8 bytes per record on the suite workloads.
 *
 * The reader is non-fatal by design: every structural problem
 * (truncation, CRC mismatch, version skew) surfaces as a ReadStatus
 * so callers choose between a clean error (ReplayExecutor fatals)
 * and programmatic handling (tests). The CRC catches accidents, not
 * forgeries, so the reader also refuses (Malformed) a record the
 * model could not replay: an invalid opcode or register, a pc that
 * is not the previous record's nextPc, or a nextPc/taken pair that
 * contradicts the instruction.
 */

#ifndef TCFILL_TRACEFILE_TRACE_IO_HH
#define TCFILL_TRACEFILE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "arch/executor.hh"
#include "tracefile/format.hh"

namespace tcfill::tracefile
{

/** Header provenance carried by every trace file. */
struct TraceMeta
{
    /** Workload the trace was captured from (suite name). */
    std::string workload;
    /** SimConfig name active at capture (cosmetic provenance). */
    std::string config;
    /** Workload scale factor at capture. */
    unsigned scale = 1;
    /** First PC of the committed stream (Program::entry). */
    Addr entryPc = 0;
    /** Retire cap active at capture (0 = recorded to halt). */
    InstSeqNum maxInsts = 0;
};

/** Why a read stopped. Ok/Eof are the two non-error outcomes. */
enum class ReadStatus : std::uint8_t
{
    Ok,           ///< record produced / header parsed
    Eof,          ///< clean end frame reached, stream exhausted
    Truncated,    ///< stream ended without an end frame
    CrcMismatch,  ///< a frame payload failed its checksum
    BadMagic,     ///< not a tcfill trace file
    BadVersion,   ///< format version this build does not speak
    Malformed,    ///< structurally invalid varint / frame tag
};

/** Human-readable form of a ReadStatus (stable, for error text). */
const char *readStatusName(ReadStatus s);

/**
 * Streams committed records into a tcfill-trace-v1 file. Records are
 * buffered into CRC-framed blocks of kFrameRecordCap; finish() (or
 * destruction) flushes the tail frame and the end frame — a file
 * missing its end frame is detected as truncated on read.
 */
class TraceWriter
{
  public:
    /** Writes the header immediately; @p os must outlive the writer. */
    TraceWriter(std::ostream &os, const TraceMeta &meta);

    /** Flushes via finish() if the caller has not. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one committed record (records arrive in seq order). */
    void append(const ExecRecord &rec);

    /** Flush the tail frame and write the end frame (idempotent). */
    void finish();

    /** Records appended so far. */
    InstSeqNum records() const { return count_; }

  private:
    void flushFrame();

    std::ostream &os_;
    std::string buf_;           ///< current frame payload
    std::size_t buf_records_ = 0;
    InstSeqNum count_ = 0;
    Addr expected_pc_;          ///< previous record's nextPc
    Addr prev_eff_addr_ = 0;
    bool finished_ = false;
};

/**
 * Streams committed records back out of a tcfill-trace-v1 file. The
 * constructor parses and CRC-checks the header; next() produces
 * records until Eof or an error status. After any non-Ok status the
 * reader is exhausted and next() keeps returning that status.
 */
class TraceReader
{
  public:
    /** Parses the header; check error() before trusting meta(). */
    explicit TraceReader(std::istream &is);

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Header provenance (valid when error() == Ok). */
    const TraceMeta &meta() const { return meta_; }

    /** Ok until the first structural error; Eof after the end frame. */
    ReadStatus error() const { return status_; }

    /** One-line description of the current error (empty when Ok). */
    const std::string &errorDetail() const { return detail_; }

    /**
     * Produce the next record. Returns Ok and fills @p rec, or Eof
     * at the clean end of the trace, or an error status.
     */
    ReadStatus next(ExecRecord &rec);

    /** Records produced so far. */
    InstSeqNum records() const { return count_; }

    /**
     * Total records promised by the end frame; only known (and only
     * meaningful) once next() has returned Eof.
     */
    InstSeqNum totalRecords() const { return total_; }

  private:
    ReadStatus fail(ReadStatus s, const std::string &detail);
    ReadStatus parseHeader();
    ReadStatus loadFrame();

    std::istream &is_;
    TraceMeta meta_;
    ReadStatus status_ = ReadStatus::Ok;
    std::string detail_;

    std::string frame_;         ///< current frame payload
    std::size_t frame_pos_ = 0;
    std::size_t frame_left_ = 0;

    InstSeqNum count_ = 0;
    InstSeqNum total_ = 0;
    Addr expected_pc_;
    Addr prev_eff_addr_ = 0;
};

/**
 * CommitSource tee: forwards an inner source unchanged while
 * appending every produced record to a TraceWriter. Wrapping the
 * source (rather than hooking retire) captures exactly the stream
 * the timing model consumed — including records fetched ahead of a
 * maxInsts retire cap — so a later replay never starves the fetch
 * engine. The wrapped run's timing is bit-identical to an unwrapped
 * one.
 */
class RecordingSource : public CommitSource
{
  public:
    RecordingSource(CommitSource &inner, TraceWriter &writer)
        : inner_(inner), writer_(writer)
    {
    }

    bool halted() const override { return inner_.halted(); }

    ExecRecord
    step() override
    {
        ExecRecord rec = inner_.step();
        writer_.append(rec);
        return rec;
    }

    InstSeqNum instCount() const override { return inner_.instCount(); }

  private:
    CommitSource &inner_;
    TraceWriter &writer_;
};

} // namespace tcfill::tracefile

#endif // TCFILL_TRACEFILE_TRACE_IO_HH
