/**
 * @file
 * Trace capture/replay and BBV sampling tests: format primitives
 * (varint/zigzag/CRC), writer/reader round trips (including fuzzed
 * random programs), structural error handling (truncation, CRC
 * mismatch, version skew, forged records), record-vs-replay timing
 * determinism, BBV interval invariants, simpoint selection
 * properties, the sampled-IPC error bound and the pinned sampled
 * estimates, and content-keyed replay result caching.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "asm/builder.hh"
#include "common/random.hh"
#include "sim/processor.hh"
#include "sim/runner.hh"
#include "sim/stats_io.hh"
#include "tracefile/bbv.hh"
#include "tracefile/format.hh"
#include "tracefile/replay.hh"
#include "tracefile/sample.hh"
#include "tracefile/trace_io.hh"
#include "workloads/suite.hh"

namespace tcfill::tracefile
{
namespace
{

constexpr InstSeqNum kTestInsts = 10'000;

SimConfig
testConfig(InstSeqNum max_insts = kTestInsts)
{
    SimConfig cfg = SimConfig::withOpts(FillOptimizations::all());
    cfg.name = "test";
    cfg.maxInsts = max_insts;
    return cfg;
}

void
expectSameRecord(const ExecRecord &a, const ExecRecord &b)
{
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.nextPc, b.nextPc);
    EXPECT_EQ(a.inst, b.inst);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.effAddr, b.effAddr);
}

void
expectSameTiming(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.retired, b.retired);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.tcHits, b.tcHits);
    EXPECT_EQ(a.tcMisses, b.tcMisses);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.inactiveRescues, b.inactiveRescues);
    EXPECT_EQ(a.mispredictStallCycles, b.mispredictStallCycles);
    EXPECT_EQ(a.segmentsBuilt, b.segmentsBuilt);
    EXPECT_EQ(a.dynMoves, b.dynMoves);
    EXPECT_EQ(a.dynReassoc, b.dynReassoc);
    EXPECT_EQ(a.dynScaled, b.dynScaled);
    EXPECT_EQ(a.dynElided, b.dynElided);
    EXPECT_EQ(a.dynMoveIdioms, b.dynMoveIdioms);
    EXPECT_EQ(a.bypassDelayed, b.bypassDelayed);
}

/** Capture @p workload's committed stream into a string. */
std::string
captureWorkload(const std::string &workload, const SimConfig &cfg)
{
    std::ostringstream os;
    const Program prog = workloads::build(workload, 1);
    TraceMeta meta;
    meta.workload = prog.name;
    meta.config = cfg.name;
    meta.entryPc = prog.entry;
    meta.maxInsts = cfg.maxInsts;
    Executor exec(prog);
    TraceWriter writer(os, meta);
    RecordingSource source(exec, writer);
    Processor proc(source, prog.name, prog.entry, cfg);
    proc.run();
    writer.finish();
    return os.str();
}

// --------------------------------------------------------------------
// Format primitives
// --------------------------------------------------------------------

TEST(Format, VarintRoundtrip)
{
    const std::uint64_t cases[] = {
        0, 1, 127, 128, 129, 16383, 16384, 1u << 20,
        0xdeadbeefull, ~0ull, ~0ull - 1,
    };
    std::string buf;
    for (std::uint64_t v : cases)
        putVarint(buf, v);
    std::size_t pos = 0;
    for (std::uint64_t v : cases) {
        std::uint64_t got = 0;
        ASSERT_TRUE(getVarint(buf, pos, got));
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(pos, buf.size());

    // Truncation is reported, not read past.
    std::string cut = buf.substr(0, buf.size() - 1);
    pos = 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
        if (!getVarint(cut, pos, v))
            break;
    }
    EXPECT_LE(pos, cut.size());
}

TEST(Format, ZigzagRoundtrip)
{
    const std::int64_t cases[] = {
        0, 1, -1, 63, -64, 64, -65, 4, -4,
        std::numeric_limits<std::int32_t>::max(),
        std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    for (std::int64_t v : cases) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
        std::string buf;
        putZigzag(buf, v);
        std::size_t pos = 0;
        std::int64_t got = 0;
        ASSERT_TRUE(getZigzag(buf, pos, got));
        EXPECT_EQ(got, v);
    }
    // Small magnitudes pack into one byte (the common deltas).
    std::string one;
    putZigzag(one, -4);
    EXPECT_EQ(one.size(), 1u);
}

TEST(Format, Crc32KnownVector)
{
    // The canonical CRC-32/IEEE check value.
    const char *s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(s, 0), 0u);
    // Seed chaining splits a buffer anywhere.
    EXPECT_EQ(crc32(s + 4, 5, crc32(s, 4)), 0xCBF43926u);
}

// --------------------------------------------------------------------
// Writer / reader round trips
// --------------------------------------------------------------------

Program
countdownProgram(int iters)
{
    ProgramBuilder b("countdown");
    Addr arr = b.dataWords(std::vector<std::int32_t>(64, 7));
    b.li(1, iters);
    b.la(2, arr);
    Label top = b.newLabel();
    b.bind(top);
    b.lw(3, 2, 8);
    b.add(4, 3, 1);
    b.sw(4, 2, 12);
    b.addi(1, 1, -1);
    b.bgtz(1, top);
    b.halt();
    return b.finish();
}

TEST(TraceIo, RoundtripSmallProgram)
{
    const Program prog = countdownProgram(50);

    // Reference stream.
    std::vector<ExecRecord> ref;
    {
        Executor exec(prog);
        while (!exec.halted())
            ref.push_back(exec.step());
    }

    // Capture.
    std::ostringstream os;
    TraceMeta meta;
    meta.workload = prog.name;
    meta.config = "test";
    meta.entryPc = prog.entry;
    {
        Executor exec(prog);
        TraceWriter writer(os, meta);
        while (!exec.halted())
            writer.append(exec.step());
        writer.finish();
        EXPECT_EQ(writer.records(), ref.size());
    }

    // Read back.
    std::istringstream is(os.str());
    TraceReader reader(is);
    ASSERT_EQ(reader.error(), ReadStatus::Ok) << reader.errorDetail();
    EXPECT_EQ(reader.meta().workload, prog.name);
    EXPECT_EQ(reader.meta().config, "test");
    EXPECT_EQ(reader.meta().entryPc, prog.entry);
    ExecRecord rec;
    for (const ExecRecord &want : ref) {
        ASSERT_EQ(reader.next(rec), ReadStatus::Ok)
            << reader.errorDetail();
        expectSameRecord(rec, want);
    }
    EXPECT_EQ(reader.next(rec), ReadStatus::Eof);
    EXPECT_EQ(reader.totalRecords(), ref.size());
    // Exhausted readers stay exhausted.
    EXPECT_EQ(reader.next(rec), ReadStatus::Eof);
}

TEST(TraceIo, MultiFrameTrace)
{
    // > kFrameRecordCap records forces multiple frames.
    const Program prog = countdownProgram(2000);
    std::ostringstream os;
    TraceMeta meta;
    meta.entryPc = prog.entry;
    Executor exec(prog);
    TraceWriter writer(os, meta);
    while (!exec.halted())
        writer.append(exec.step());
    writer.finish();
    ASSERT_GT(writer.records(), kFrameRecordCap);

    std::istringstream is(os.str());
    TraceReader reader(is);
    ASSERT_EQ(reader.error(), ReadStatus::Ok);
    ExecRecord rec;
    InstSeqNum n = 0;
    while (reader.next(rec) == ReadStatus::Ok)
        ++n;
    EXPECT_EQ(reader.error(), ReadStatus::Eof);
    EXPECT_EQ(n, writer.records());
}

TEST(TraceIo, EmptyTrace)
{
    std::ostringstream os;
    TraceMeta meta;
    meta.workload = "empty";
    {
        TraceWriter writer(os, meta);
        writer.finish();
    }
    std::istringstream is(os.str());
    TraceReader reader(is);
    ASSERT_EQ(reader.error(), ReadStatus::Ok);
    EXPECT_EQ(reader.meta().workload, "empty");
    ExecRecord rec;
    EXPECT_EQ(reader.next(rec), ReadStatus::Eof);
    EXPECT_EQ(reader.totalRecords(), 0u);
}

TEST(TraceIo, CompressionIsEffective)
{
    // The delta/varint packing should land well under the ~37 bytes
    // an unpacked ExecRecord occupies in memory.
    const std::string bytes = captureWorkload("compress", testConfig());
    std::istringstream is(bytes);
    TraceReader reader(is);
    ASSERT_EQ(reader.error(), ReadStatus::Ok);
    ExecRecord rec;
    while (reader.next(rec) == ReadStatus::Ok) {
    }
    ASSERT_EQ(reader.error(), ReadStatus::Eof);
    const double per_record = static_cast<double>(bytes.size()) /
        static_cast<double>(reader.records());
    EXPECT_LT(per_record, 16.0);
}

// --------------------------------------------------------------------
// Structural error handling
// --------------------------------------------------------------------

/** A tiny valid trace plus its decomposition offsets. */
struct TraceImage
{
    std::string bytes;
    std::size_t headerEnd;  ///< offset just past the header CRC
};

/** Decompose the trace file @p bytes. */
TraceImage
imageOf(std::string bytes)
{
    TraceImage img;
    img.bytes = std::move(bytes);
    // magic(8) + version(4) + len(4) + payload(len) + crc(4).
    const auto len =
        static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(img.bytes[12])) |
        static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(img.bytes[13])) << 8 |
        static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(img.bytes[14])) << 16 |
        static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(img.bytes[15])) << 24;
    img.headerEnd = 16 + len + 4;
    return img;
}

/** @p prog's committed stream (at most @p cap records when non-zero). */
TraceImage
traceImage(const Program &prog, InstSeqNum cap = 0)
{
    std::ostringstream os;
    TraceMeta meta;
    meta.workload = prog.name;
    meta.entryPc = prog.entry;
    Executor exec(prog);
    TraceWriter writer(os, meta);
    for (InstSeqNum n = 0; !exec.halted() && (cap == 0 || n < cap); ++n)
        writer.append(exec.step());
    writer.finish();
    return imageOf(os.str());
}

TraceImage
smallImage()
{
    return traceImage(countdownProgram(10));
}

/** Where one record frame's payload sits inside a trace image. */
struct FrameSpan
{
    std::size_t payload;
    std::size_t len;
};

/** The record frames of @p img, in stream order. */
std::vector<FrameSpan>
recordFrames(const TraceImage &img)
{
    std::vector<FrameSpan> frames;
    std::size_t pos = img.headerEnd;
    while (static_cast<std::uint8_t>(img.bytes[pos]) == kFrameRecords) {
        std::uint64_t n = 0, len = 0;
        ++pos;
        EXPECT_TRUE(getVarint(img.bytes, pos, n) &&
                    getVarint(img.bytes, pos, len));
        frames.push_back({pos, static_cast<std::size_t>(len)});
        pos += len + 4;
    }
    return frames;
}

/** Recompute @p f's CRC after its payload changed: forge the frame. */
void
reseal(std::string &bytes, const FrameSpan &f)
{
    const std::uint32_t crc = crc32(bytes.data() + f.payload, f.len);
    for (std::size_t i = 0; i < 4; ++i)
        bytes[f.payload + f.len + i] = static_cast<char>(crc >> (8 * i));
}

ReadStatus
drain(const std::string &bytes, std::string *detail = nullptr)
{
    std::istringstream is(bytes);
    TraceReader reader(is);
    ExecRecord rec;
    ReadStatus s = reader.error();
    while (s == ReadStatus::Ok)
        s = reader.next(rec);
    if (detail)
        *detail = reader.errorDetail();
    return s;
}

TEST(TraceErrors, CleanFileDrainsToEof)
{
    EXPECT_EQ(drain(smallImage().bytes), ReadStatus::Eof);
}

TEST(TraceErrors, TruncatedMidFrame)
{
    TraceImage img = smallImage();
    // Drop the end frame and half the record frame.
    std::string cut =
        img.bytes.substr(0, img.headerEnd +
                                (img.bytes.size() - img.headerEnd) / 2);
    EXPECT_EQ(drain(cut), ReadStatus::Truncated);
}

TEST(TraceErrors, MissingEndFrameIsTruncated)
{
    // Cut exactly at the end-frame boundary: all records are intact
    // but the terminator is gone — still flagged, never silent Eof.
    TraceImage img = smallImage();
    // End frame = tag + varint(total) + crc4; total < 128 here.
    std::string cut = img.bytes.substr(0, img.bytes.size() - 6);
    EXPECT_EQ(drain(cut), ReadStatus::Truncated);
}

TEST(TraceErrors, FrameCrcMismatch)
{
    TraceImage img = smallImage();
    // Flip a byte inside the record frame payload (skip the frame's
    // tag + two varints; any payload byte works).
    img.bytes[img.headerEnd + 8] ^= 0x40;
    std::string detail;
    EXPECT_EQ(drain(img.bytes, &detail), ReadStatus::CrcMismatch);
    EXPECT_NE(detail.find("CRC"), std::string::npos);
}

TEST(TraceErrors, HeaderCrcMismatch)
{
    TraceImage img = smallImage();
    img.bytes[17] ^= 0x01;  // inside the header payload
    EXPECT_EQ(drain(img.bytes), ReadStatus::CrcMismatch);
}

TEST(TraceErrors, VersionSkew)
{
    TraceImage img = smallImage();
    img.bytes[8] = 99;  // version u32 LE at offset 8
    std::string detail;
    EXPECT_EQ(drain(img.bytes, &detail), ReadStatus::BadVersion);
    EXPECT_NE(detail.find("v99"), std::string::npos);
}

TEST(TraceErrors, BadMagic)
{
    EXPECT_EQ(drain("definitely not a trace file"),
              ReadStatus::BadMagic);
    EXPECT_EQ(drain(""), ReadStatus::BadMagic);
    TraceImage img = smallImage();
    img.bytes[0] = 'X';
    EXPECT_EQ(drain(img.bytes), ReadStatus::BadMagic);
}

TEST(TraceErrors, UnknownFrameTag)
{
    TraceImage img = smallImage();
    img.bytes[img.headerEnd] = 0x7f;  // record frame tag position
    EXPECT_EQ(drain(img.bytes), ReadStatus::Malformed);
}

TEST(TraceErrors, ForgedRegisterIsMalformed)
{
    // Each of a record's four register bytes, forged past the
    // architectural file behind a valid CRC, stops the stream before
    // the record reaches the model.
    for (std::size_t reg = 0; reg < 4; ++reg) {
        TraceImage img = smallImage();
        const FrameSpan f = recordFrames(img).front();
        // Record 0 starts the frame: flags, op, then the registers.
        img.bytes[f.payload + 2 + reg] = 100;
        reseal(img.bytes, f);
        std::string detail;
        EXPECT_EQ(drain(img.bytes, &detail), ReadStatus::Malformed)
            << "register " << reg;
        EXPECT_EQ(detail, "record has invalid register");
    }
}

TEST(TraceErrors, StatusNamesAreStable)
{
    EXPECT_STREQ(readStatusName(ReadStatus::Ok), "ok");
    EXPECT_STREQ(readStatusName(ReadStatus::Eof), "eof");
    EXPECT_STREQ(readStatusName(ReadStatus::Truncated), "truncated");
    EXPECT_STREQ(readStatusName(ReadStatus::CrcMismatch),
                 "crc mismatch");
    EXPECT_STREQ(readStatusName(ReadStatus::BadVersion),
                 "version skew");
}

TEST(TraceErrorsDeathTest, ReplayExecutorFatalsOnCorruptTrace)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TraceImage img = smallImage();
    img.bytes[img.headerEnd + 8] ^= 0x40;
    EXPECT_EXIT(
        {
            std::istringstream is(img.bytes);
            ReplayExecutor rx(is, "corrupt.tctrace");
            while (!rx.halted())
                rx.step();
        },
        ::testing::ExitedWithCode(1), "crc mismatch");
}

/** A decoded register is absent or inside the architectural file. */
bool
validReg(RegIndex r)
{
    return r == Instruction::kNoReg || r < kNumArchRegs;
}

// Seeded mutations of real traces: bytes inside a record frame
// overwritten and the frame's CRC recomputed (a forgery, not an
// accident), or the stream cut short. Every stream must end in Eof or
// in an error with a detail, and every record it yields must be one
// the model can index: a valid opcode and registers.
TEST(TraceFuzz, MutatedFramesRejectOrDecodeValidRecords)
{
    const TraceImage images[] = {
        smallImage(),
        traceImage(workloads::build("compress", 1), 6'000),
    };
    Random rng(0x7eace);
    unsigned eof = 0, malformed = 0, truncated = 0;
    for (int iter = 0; iter < 1500; ++iter) {
        const TraceImage &img = images[iter % 2];
        std::string bytes = img.bytes;
        if (iter % 5 == 4) {
            bytes.resize(img.headerEnd +
                         rng.below(bytes.size() - img.headerEnd));
        } else {
            const std::vector<FrameSpan> frames = recordFrames(img);
            const FrameSpan f = frames[rng.below(frames.size())];
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t k = 0; k < n; ++k) {
                bytes[f.payload + rng.below(f.len)] =
                    static_cast<char>(rng.below(256));
            }
            reseal(bytes, f);
        }

        std::istringstream is(bytes);
        TraceReader reader(is);
        ExecRecord rec;
        ReadStatus s = reader.error();
        while (s == ReadStatus::Ok) {
            s = reader.next(rec);
            if (s != ReadStatus::Ok)
                break;
            ASSERT_LT(static_cast<unsigned>(rec.inst.op),
                      static_cast<unsigned>(Op::NumOps)) << iter;
            ASSERT_TRUE(validReg(rec.inst.dest) &&
                        validReg(rec.inst.src1) &&
                        validReg(rec.inst.src2) &&
                        validReg(rec.inst.src3)) << iter;
        }
        if (s == ReadStatus::Eof) {
            ++eof;
            continue;
        }
        EXPECT_FALSE(reader.errorDetail().empty()) << iter;
        malformed += s == ReadStatus::Malformed;
        truncated += s == ReadStatus::Truncated;
    }
    // The generator must reach the decoding, refusing and cut paths.
    EXPECT_GT(eof, 50u);
    EXPECT_GT(malformed, 100u);
    EXPECT_GT(truncated, 100u);
}

// One bit flipped in a recorded run's record frame, behind a valid
// CRC: a forged branch outcome, target or PC must be refused by the
// reader with a detail, never reach the model and trip one of its
// committed-path panics; every other forgery replays to the end.
TEST(TraceFuzz, ForgedPathReplaysOrIsRefused)
{
    const SimConfig cfg = testConfig(20'000);
    const TraceImage img = imageOf(captureWorkload("compress", cfg));
    const std::vector<FrameSpan> frames = recordFrames(img);
    ASSERT_FALSE(frames.empty());

    Random rng(0xf0f9);
    unsigned refused = 0, replayed = 0;
    for (int iter = 0; iter < 80; ++iter) {
        std::string bytes = img.bytes;
        const FrameSpan f = frames[rng.below(frames.size())];
        bytes[f.payload + rng.below(f.len)] ^=
            static_cast<char>(1u << rng.below(8));
        reseal(bytes, f);

        std::string detail;
        if (drain(bytes, &detail) != ReadStatus::Eof) {
            EXPECT_FALSE(detail.empty()) << iter;
            ++refused;
            continue;
        }
        std::istringstream is(bytes);
        ReplayExecutor rx(is, "forged");
        Processor proc(rx, rx.meta().workload, rx.meta().entryPc, cfg);
        EXPECT_GT(proc.run().retired, 0u) << iter;
        ++replayed;
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(replayed, 0u);
}

// --------------------------------------------------------------------
// Record / replay timing determinism
// --------------------------------------------------------------------

TEST(Replay, TimingIdenticalToLiveRun)
{
    for (const char *workload : {"compress", "li"}) {
        const SimConfig cfg = testConfig();
        const Program prog = workloads::build(workload, 1);
        Processor live(prog, cfg);
        const SimResult live_res = live.run();

        const std::string bytes = captureWorkload(workload, cfg);
        std::istringstream is(bytes);
        ReplayExecutor rx(is, workload);
        EXPECT_EQ(rx.meta().workload, workload);
        EXPECT_EQ(rx.meta().maxInsts, cfg.maxInsts);
        Processor replay(rx, rx.meta().workload, rx.meta().entryPc,
                         cfg);
        const SimResult replay_res = replay.run();

        expectSameTiming(live_res, replay_res);
    }
}

TEST(Replay, RecordingDoesNotPerturbTiming)
{
    const SimConfig cfg = testConfig();
    const Program prog = workloads::build("li", 1);
    Processor plain(prog, cfg);
    const SimResult plain_res = plain.run();

    std::ostringstream os;
    TraceMeta meta;
    meta.workload = prog.name;
    meta.entryPc = prog.entry;
    Executor exec(prog);
    TraceWriter writer(os, meta);
    RecordingSource source(exec, writer);
    Processor recorded(source, prog.name, prog.entry, cfg);
    const SimResult rec_res = recorded.run();

    expectSameTiming(plain_res, rec_res);
}

TEST(Replay, CapSmallerThanTraceStopsCleanly)
{
    const std::string bytes = captureWorkload("compress", testConfig());
    SimConfig small = testConfig(2'000);
    std::istringstream is(bytes);
    ReplayExecutor rx(is, "compress");
    Processor proc(rx, rx.meta().workload, rx.meta().entryPc, small);
    const SimResult res = proc.run();
    EXPECT_EQ(res.retired, 2'000u);
}

TEST(Replay, UncappedReplayClampsToRecordedRegion)
{
    // A capped recording ends mid-program (no serializing halt), so a
    // replay whose cap is lifted — or larger than the recording's —
    // must be clamped to the recorded region and stop cleanly there,
    // with timing identical to a replay at the recorded cap.
    const std::string path =
        ::testing::TempDir() + "tcfill_exhaust.tctrace";
    const SimConfig capped = testConfig(2'000);
    const SimResult rec = recordTrace("compress", 1, capped, path);

    setQuietLogging(true);  // silence the expected clamp warning
    SimConfig uncapped = testConfig(0);
    uncapped.maxCycles = 1'000'000;  // backstop against livelock
    const SimResult res = replayTrace(path, uncapped);
    EXPECT_EQ(res.retired, rec.retired);
    EXPECT_EQ(res.cycles, rec.cycles);
    EXPECT_LT(res.cycles, 1'000'000u);

    SimConfig larger = testConfig(5'000);
    const SimResult res2 = replayTrace(path, larger);
    EXPECT_EQ(res2.retired, rec.retired);
    EXPECT_EQ(res2.cycles, rec.cycles);
    setQuietLogging(false);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Round-trip fuzz over random programs
// --------------------------------------------------------------------

Program
randomProgram(Random &rng, int index)
{
    ProgramBuilder b("fuzz" + std::to_string(index));
    const Addr arr = b.dataWords(std::vector<std::int32_t>(64, 3));
    const int iters = static_cast<int>(rng.range(5, 40));
    b.li(1, iters);
    b.la(2, arr);
    Label top = b.newLabel();
    b.bind(top);
    const int body = static_cast<int>(rng.range(4, 12));
    for (int i = 0; i < body; ++i) {
        const RegIndex rd = static_cast<RegIndex>(rng.range(3, 10));
        const RegIndex rs = static_cast<RegIndex>(rng.range(1, 10));
        const RegIndex rt = static_cast<RegIndex>(rng.range(1, 10));
        switch (rng.below(8)) {
          case 0:
            b.add(rd, rs, rt);
            break;
          case 1:
            b.sub(rd, rs, rt);
            break;
          case 2:
            b.xor_(rd, rs, rt);
            break;
          case 3:
            b.addi(rd, rs,
                   static_cast<std::int32_t>(rng.range(-100, 100)));
            break;
          case 4:
            b.slli(rd, rs, static_cast<unsigned>(rng.range(0, 4)));
            break;
          case 5:
            b.lw(rd, 2,
                 static_cast<std::int32_t>(4 * rng.range(0, 63)));
            break;
          case 6:
            b.sw(rs, 2,
                 static_cast<std::int32_t>(4 * rng.range(0, 63)));
            break;
          default: {
            // Short forward branch over one instruction.
            Label skip = b.newLabel();
            b.beq(rs, rt, skip);
            b.addi(rd, rd, 1);
            b.bind(skip);
            break;
          }
        }
    }
    b.addi(1, 1, -1);
    b.bgtz(1, top);
    b.halt();
    return b.finish();
}

TEST(Fuzz, RecordReplayRoundtrip)
{
    Random rng(0xf022);
    for (int i = 0; i < 12; ++i) {
        const Program prog = randomProgram(rng, i);
        SimConfig cfg = testConfig(0);
        cfg.name = "fuzz";

        // Record a live timing run.
        std::ostringstream os;
        TraceMeta meta;
        meta.workload = prog.name;
        meta.config = cfg.name;
        meta.entryPc = prog.entry;
        Executor exec(prog);
        TraceWriter writer(os, meta);
        RecordingSource source(exec, writer);
        Processor rec_proc(source, prog.name, prog.entry, cfg);
        SimResult rec_res = rec_proc.run();
        writer.finish();

        // Replay: identical committed count and timing.
        std::istringstream is(os.str());
        ReplayExecutor rx(is, prog.name);
        Processor rep_proc(rx, rx.meta().workload, rx.meta().entryPc,
                           cfg);
        SimResult rep_res = rep_proc.run();
        ASSERT_EQ(rep_res.retired, rec_res.retired) << prog.name;
        expectSameTiming(rec_res, rep_res);

        // Byte-identical stats JSON once the mode provenance (the
        // one field that legitimately differs) is normalized.
        rec_res.mode = rep_res.mode = "x";
        rec_res.config = rep_res.config = cfg.name;
        std::ostringstream ja, jb;
        writeStatsJson(ja, "fuzz", {rec_res});
        writeStatsJson(jb, "fuzz", {rep_res});
        ASSERT_EQ(ja.str(), jb.str()) << prog.name;

        // And the decoded record stream matches a functional rerun.
        std::istringstream is2(os.str());
        TraceReader reader(is2);
        ASSERT_EQ(reader.error(), ReadStatus::Ok);
        Executor ref(prog);
        ExecRecord rec;
        while (reader.next(rec) == ReadStatus::Ok) {
            ASSERT_FALSE(ref.halted());
            expectSameRecord(rec, ref.step());
        }
        ASSERT_EQ(reader.error(), ReadStatus::Eof);
        // The recorder may have captured prefetched-but-unretired
        // tail records; the functional rerun must cover them all.
        EXPECT_EQ(reader.records(), reader.totalRecords());
    }
}

// --------------------------------------------------------------------
// BBV profiling
// --------------------------------------------------------------------

TEST(Bbv, IntervalInvariants)
{
    const Program prog = workloads::build("li", 1);
    Executor exec(prog);
    const InstSeqNum interval = 1'000;
    auto ivs = profileBbv(exec, interval, kTestInsts);
    ASSERT_FALSE(ivs.empty());
    InstSeqNum total = 0;
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        std::uint64_t sum = 0;
        for (const auto &[pc, count] : ivs[i].blocks)
            sum += count;
        EXPECT_EQ(sum, ivs[i].insts) << "interval " << i;
        if (i + 1 < ivs.size()) {
            EXPECT_EQ(ivs[i].insts, interval);
        }
        total += ivs[i].insts;
    }
    EXPECT_EQ(total, kTestInsts);
}

TEST(Bbv, JsonEmission)
{
    const Program prog = countdownProgram(100);
    Executor exec(prog);
    auto ivs = profileBbv(exec, 100);
    std::ostringstream os;
    writeBbvJson(os, prog.name, 100, ivs);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\": \"tcfill-bbv-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"workload\": \"countdown\""),
              std::string::npos);
    // Deterministic bytes on re-emission.
    std::ostringstream os2;
    writeBbvJson(os2, prog.name, 100, ivs);
    EXPECT_EQ(doc, os2.str());
}

// --------------------------------------------------------------------
// Simpoint selection
// --------------------------------------------------------------------

std::vector<BbvInterval>
profiledIntervals(const char *workload, InstSeqNum interval,
                  InstSeqNum cap)
{
    const Program prog = workloads::build(workload, 1);
    Executor exec(prog);
    return profileBbv(exec, interval, cap);
}

TEST(Simpoints, SelectionProperties)
{
    auto ivs = profiledIntervals("compress", 1'000, 50'000);
    ASSERT_GE(ivs.size(), 8u);
    auto pts = selectSimpoints(ivs, 5);
    ASSERT_FALSE(pts.empty());
    EXPECT_LE(pts.size(), 5u);

    double weight = 0.0;
    std::size_t prev = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_LT(pts[i].interval, ivs.size());
        EXPECT_GT(pts[i].weight, 0.0);
        if (i > 0) {
            EXPECT_GT(pts[i].interval, prev) << "sorted, unique";
        }
        prev = pts[i].interval;
        weight += pts[i].weight;
    }
    EXPECT_NEAR(weight, 1.0, 1e-9);
}

TEST(Simpoints, Deterministic)
{
    auto ivs = profiledIntervals("li", 1'000, 30'000);
    auto a = selectSimpoints(ivs, 4);
    auto b = selectSimpoints(ivs, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].interval, b[i].interval);
        EXPECT_DOUBLE_EQ(a[i].weight, b[i].weight);
    }
}

TEST(Simpoints, KClampsToIntervalCount)
{
    auto ivs = profiledIntervals("li", 5'000, 15'000);
    auto pts = selectSimpoints(ivs, 100);
    EXPECT_LE(pts.size(), ivs.size());
    double weight = 0.0;
    for (const auto &p : pts)
        weight += p.weight;
    EXPECT_NEAR(weight, 1.0, 1e-9);
}

TEST(Simpoints, EmptyInput)
{
    EXPECT_TRUE(selectSimpoints({}, 4).empty());
}

// --------------------------------------------------------------------
// Sampled runs
// --------------------------------------------------------------------

TEST(Sampling, IpcWithinBoundOfFullRun)
{
    // The bound here matches the recipe documented in EXPERIMENTS.md:
    // k=8 x 10k-inst intervals with 50k warmup tracks a 100k-inst
    // full run within 10% (measured ~0.5% compress, ~3% li).
    const SimConfig cfg = testConfig(100'000);
    SampleSpec spec;
    spec.k = 8;
    spec.interval = 10'000;
    spec.warmup = 50'000;
    for (const char *workload : {"compress", "li"}) {
        const Program prog = workloads::build(workload, 1);
        Processor full(prog, cfg);
        const double full_ipc = full.run().ipc();

        const SimResult sampled = runSampled(workload, 1, cfg, spec);
        EXPECT_EQ(sampled.mode, "sample");
        EXPECT_EQ(sampled.retired, 100'000u);
        const double err =
            std::abs(sampled.ipc() - full_ipc) / full_ipc;
        EXPECT_LT(err, 0.10)
            << workload << ": sampled " << sampled.ipc() << " vs full "
            << full_ipc;
    }
}

TEST(Sampling, RetireProbeMatchesPrefixSubtraction)
{
    // The single-run warmup probe must read exactly the cycle count a
    // separate run capped at the warmup boundary would report — the
    // deterministic-prefix property the sampled estimate rests on.
    const Program prog = workloads::build("compress", 1);
    const SimConfig base = testConfig();
    constexpr InstSeqNum kSkip = 20'000;
    constexpr InstSeqNum kWarm = 10'000;
    constexpr InstSeqNum kMeasure = 10'000;

    auto position = [&prog](InstSeqNum skip) {
        Executor exec(prog);
        exec.fastForward(skip);
        return exec;
    };

    // Reference: two capped runs, as the pre-checkpointing
    // implementation timed them.
    Cycle c_warm_ref, c_full_ref;
    {
        Executor exec = position(kSkip);
        SimConfig cfg = base;
        cfg.maxInsts = kWarm;
        Processor proc(exec, prog.name, exec.state().pc, cfg);
        c_warm_ref = proc.run().cycles;
    }
    {
        Executor exec = position(kSkip);
        SimConfig cfg = base;
        cfg.maxInsts = kWarm + kMeasure;
        Processor proc(exec, prog.name, exec.state().pc, cfg);
        c_full_ref = proc.run().cycles;
    }

    // One probed run reproduces both numbers.
    Executor exec = position(kSkip);
    SimConfig cfg = base;
    cfg.maxInsts = kWarm + kMeasure;
    Processor proc(exec, prog.name, exec.state().pc, cfg);
    Cycle c_probe = 0;
    proc.setRetireCycleProbe(kWarm, &c_probe);
    const SimResult full = proc.run();
    EXPECT_EQ(c_probe, c_warm_ref);
    EXPECT_EQ(full.cycles, c_full_ref);
    EXPECT_EQ(full.cycles - c_probe, c_full_ref - c_warm_ref);
}

TEST(Sampling, MatchesReferenceImplementation)
{
    // The estimates the retired serial re-execute reference sampler
    // produced (every simpoint re-executed its prefix and timed warmup
    // and warmup+measure as two runs), recorded while it still ran
    // next to the checkpoint-parallel path and matched it.
    const SimConfig cfg = testConfig(100'000);
    SampleSpec spec;
    spec.k = 8;
    spec.interval = 10'000;
    spec.warmup = 50'000;
    const std::pair<const char *, Cycle> pins[] = {
        {"compress", 66'850},
        {"li", 65'621},
    };
    for (const auto &[workload, cycles] : pins) {
        const SimResult r = runSampled(workload, 1, cfg, spec);
        EXPECT_EQ(r.mode, "sample") << workload;
        EXPECT_EQ(r.retired, 100'000u) << workload;
        EXPECT_EQ(r.maxInsts, 100'000u) << workload;
        EXPECT_EQ(r.cycles, cycles) << workload;
    }
}

TEST(Sampling, DeterministicAcrossJobsAndCheckpointKnobs)
{
    const SimConfig cfg = testConfig(100'000);
    SampleSpec spec;
    spec.k = 8;
    spec.interval = 10'000;
    spec.warmup = 50'000;

    spec.jobs = 1;
    const SimResult serial = runSampled("compress", 1, cfg, spec);

    spec.jobs = 8;
    const SimResult pooled = runSampled("compress", 1, cfg, spec);
    EXPECT_EQ(pooled.cycles, serial.cycles);
    EXPECT_EQ(pooled.retired, serial.retired);
    EXPECT_EQ(pooled.sample.jobs, 8u);

    // A sparser checkpoint stride trades restore traffic for residual
    // fast-forward without moving the estimate.
    spec.checkpointStride = 3;
    const SimResult strided = runSampled("compress", 1, cfg, spec);
    EXPECT_EQ(strided.cycles, serial.cycles);
    EXPECT_LT(strided.sample.checkpoints, serial.sample.checkpoints);
    EXPECT_GE(strided.sample.ffInsts, serial.sample.ffInsts);

    // Checkpoint accounting of the dense serial run: one restore per
    // simpoint, a checkpoint at every interval boundary but the
    // region's end, and every restore bounded by the journal.
    EXPECT_EQ(serial.sample.simpoints, serial.sample.restores);
    EXPECT_EQ(serial.sample.checkpoints, 10u);
    EXPECT_GT(serial.sample.checkpointPages, 0u);
    EXPECT_LE(serial.sample.restoredPages,
              serial.sample.restores * serial.sample.checkpointPages);
}

// --------------------------------------------------------------------
// One-call replay
// --------------------------------------------------------------------

TEST(ReplayCache, ReplayTraceMatchesRecordResult)
{
    const std::string path =
        ::testing::TempDir() + "tcfill_rr.tctrace";
    const SimConfig cfg = testConfig(5'000);
    const SimResult rec = recordTrace("li", 1, cfg, path);
    const SimResult rep = replayTrace(path, cfg);
    EXPECT_EQ(rep.mode, "replay");
    EXPECT_EQ(rep.workload, "li");
    expectSameTiming(rec, rep);

    // The same bytes under a second path: the identity follows the
    // content, not the path.
    const std::string copy = path + ".copy";
    {
        std::ifstream src(path, std::ios::binary);
        std::ofstream dst(copy, std::ios::binary);
        dst << src.rdbuf();
    }
    EXPECT_EQ(traceIdentity(copy), traceIdentity(path));
    EXPECT_EQ(rep.sourceDigest, traceDigest(traceIdentity(copy)));
    std::remove(path.c_str());
    std::remove(copy.c_str());
}

} // namespace
} // namespace tcfill::tracefile
