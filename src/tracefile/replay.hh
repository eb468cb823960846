/**
 * @file
 * Record and replay of committed-trace files against the timing
 * model. ReplayExecutor is the CommitSource that re-materializes a
 * captured stream; recordTrace()/replayTrace() are the one-call
 * entry points the CLI uses.
 *
 * Determinism contract (the cli.replay ctest): for any workload and
 * config, record → replay produces byte-identical tcfill-stats-v1
 * JSON apart from the host section and the mode field, because the
 * pipeline stages consume only ExecRecords via OracleStream and the
 * replayed stream is the recorded one, record for record
 * (DESIGN.md §12).
 */

#ifndef TCFILL_TRACEFILE_REPLAY_HH
#define TCFILL_TRACEFILE_REPLAY_HH

#include <iosfwd>
#include <string>

#include "sim/config.hh"
#include "sim/result.hh"
#include "tracefile/trace_io.hh"

namespace tcfill::tracefile
{

/**
 * CommitSource that replays a tcfill-trace-v1 stream. Maintains one
 * record of lookahead so halted() can answer without consuming.
 * Structural problems in the file (truncation, CRC mismatch, version
 * skew) are user errors and fatal() with the reader's diagnosis —
 * use TraceReader directly for non-fatal handling.
 */
class ReplayExecutor : public CommitSource
{
  public:
    /**
     * Parse the header and prefetch the first record. @p name labels
     * error messages (usually the file path); @p is must outlive
     * this object.
     */
    explicit ReplayExecutor(std::istream &is,
                            const std::string &name = "<trace>");

    /** Provenance from the trace header. */
    const TraceMeta &meta() const { return reader_.meta(); }

    bool halted() const override { return !has_next_; }
    ExecRecord step() override;
    InstSeqNum instCount() const override { return stepped_; }

  private:
    void advance();

    TraceReader reader_;
    std::string name_;
    ExecRecord next_;
    bool has_next_ = false;
    InstSeqNum stepped_ = 0;
};

/**
 * Content identity of a trace file: CRC-32 over the whole file plus
 * its byte length. Two paths with equal identity replay identically,
 * so a replay's provenance digest is taken of it (traceDigest()).
 * Fatal if @p path cannot be read.
 */
std::string traceIdentity(const std::string &path);

/**
 * FNV-1a 64 (hex) digest of a trace content identity
 * ("trace:<crc>:<size>") — the SimResult::sourceDigest of replayed
 * runs, parallel to workloadDigest() for live ones.
 */
std::string traceDigest(const std::string &identity);

/**
 * Run @p workload at @p scale under @p cfg while capturing the
 * committed stream to @p path. Timing is identical to an unrecorded
 * run; the result's mode is "record". Fatal on unknown workload or
 * unwritable path.
 */
SimResult recordTrace(const std::string &workload, unsigned scale,
                      const SimConfig &cfg, const std::string &path);

/**
 * Replay the trace at @p path under @p cfg. The workload label and
 * entry PC come from the trace header; the result's mode is
 * "replay". Fatal on unreadable or structurally invalid traces.
 */
SimResult replayTrace(const std::string &path, const SimConfig &cfg);

} // namespace tcfill::tracefile

#endif // TCFILL_TRACEFILE_REPLAY_HH
