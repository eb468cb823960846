#include "tracefile/replay.hh"

#include <fstream>
#include <sstream>

#include "common/digest.hh"
#include "common/logging.hh"
#include "sim/processor.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcfill::tracefile
{

// --------------------------------------------------------------------
// ReplayExecutor
// --------------------------------------------------------------------

ReplayExecutor::ReplayExecutor(std::istream &is, const std::string &name)
    : reader_(is), name_(name)
{
    if (reader_.error() != ReadStatus::Ok) {
        fatal("%s: %s (%s)", name_.c_str(),
              readStatusName(reader_.error()),
              reader_.errorDetail().c_str());
    }
    advance();
}

void
ReplayExecutor::advance()
{
    const ReadStatus s = reader_.next(next_);
    if (s == ReadStatus::Ok) {
        has_next_ = true;
        return;
    }
    has_next_ = false;
    if (s != ReadStatus::Eof) {
        fatal("%s: %s after %llu records (%s)", name_.c_str(),
              readStatusName(s),
              static_cast<unsigned long long>(reader_.records()),
              reader_.errorDetail().c_str());
    }
}

ExecRecord
ReplayExecutor::step()
{
    panic_if(!has_next_, "ReplayExecutor::step() after halted()");
    ExecRecord rec = next_;
    ++stepped_;
    advance();
    return rec;
}

// --------------------------------------------------------------------
// One-call record / replay
// --------------------------------------------------------------------

std::string
traceIdentity(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open trace file '%s'", path.c_str());
    char buf[1 << 16];
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
        const auto n = static_cast<std::size_t>(is.gcount());
        crc = crc32(buf, n, crc);
        size += n;
    }
    std::ostringstream os;
    os << std::hex << crc << std::dec << ':' << size;
    return os.str();
}

std::string
traceDigest(const std::string &identity)
{
    return digest::hex64(digest::fnv64("trace:" + identity));
}

SimResult
recordTrace(const std::string &workload, unsigned scale,
            const SimConfig &cfg, const std::string &path)
{
    const Program prog = workloads::build(workload, scale);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatal("cannot write trace file '%s'", path.c_str());

    TraceMeta meta;
    meta.workload = prog.name;
    meta.config = cfg.name;
    meta.scale = scale;
    meta.entryPc = prog.entry;
    meta.maxInsts = cfg.maxInsts;

    Executor exec(prog);
    TraceWriter writer(os, meta);
    RecordingSource source(exec, writer);
    Processor proc(source, prog.name, prog.entry, cfg);
    SimResult res = proc.run();
    writer.finish();
    if (!os)
        fatal("write error on trace file '%s'", path.c_str());
    res.mode = "record";
    res.sourceDigest = workloadDigest(workload, scale);
    return res;
}

SimResult
replayTrace(const std::string &path, const SimConfig &cfg)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open trace file '%s'", path.c_str());
    ReplayExecutor source(is, path);

    // A capped recording stops mid-program: the committed stream ends
    // at the retire cap (plus the fetch-ahead tail), not at a
    // serializing halt, so the pipeline cannot outrun the recorded
    // region. Clamp the replay cap to the recording's so the replayed
    // machine stops exactly where the recorded one did.
    SimConfig run_cfg = cfg;
    const InstSeqNum recorded = source.meta().maxInsts;
    if (recorded > 0 &&
        (run_cfg.maxInsts == 0 || run_cfg.maxInsts > recorded)) {
        warn("%s: trace was recorded with --max-insts %llu; "
             "clamping replay cap %llu to the recorded region",
             path.c_str(), static_cast<unsigned long long>(recorded),
             static_cast<unsigned long long>(run_cfg.maxInsts));
        run_cfg.maxInsts = recorded;
    }

    Processor proc(source, source.meta().workload,
                   source.meta().entryPc, run_cfg);
    SimResult res = proc.run();
    res.mode = "replay";
    res.sourceDigest = traceDigest(traceIdentity(path));
    return res;
}

} // namespace tcfill::tracefile
