#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>

#include <sys/resource.h>

#include "arch/executor.hh"
#include "common/logging.hh"
#include "obs/trace_events.hh"
#include "service/store.hh"
#include "sim/result_io.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;

const std::vector<MetricSpec> &
metricTable()
{
    static const std::vector<MetricSpec> table = {
        // End to end: what a user of the simulator sees.
        {"sim_insts_per_s", "1/s", true},
        {"ipc_geomean", "insts/cycle", true},
        {"est_insts_per_s", "1/s", true},
        {"sample_ipc_acc_pct", "%", true},
        {"hit_p50_us", "us", true},
        {"hit_p99_us", "us", true},
        {"miss_p50_ms", "ms", true},
        {"req_per_s", "1/s", true},
        {"setup_s", "s", true},
        {"peak_rss_mb", "MB", true},
        {"ok_frac", "frac", true},
        // Per layer (traced run).
        {"sim.run_s", "s", false},
        {"sim.ticks_per_cycle", "ratio", false},
        {"sim.unattributed_frac", "frac", false},
        {"pipeline.fetch_s", "s", false},
        {"pipeline.dispatch_s", "s", false},
        {"pipeline.issue_s", "s", false},
        {"pipeline.retire_s", "s", false},
        {"pipeline.recovery_s", "s", false},
        {"pipeline.trace_lines", "count", false},
        {"pipeline.icache_lines", "count", false},
        {"pipeline.dispatched_insts", "count", false},
        {"pipeline.dispatch_useful_frac", "frac", false},
        {"pipeline.squashes", "count", false},
        {"pipeline.mispredict_stall_cycles", "cycles", false},
        {"fill.tick_s", "s", false},
        {"fill.segments", "count", false},
        {"fill.insts_per_segment", "insts", false},
        {"fill.transformed_frac", "frac", false},
        {"fill.moves_marked", "count", false},
        {"fill.reassociations", "count", false},
        {"fill.scaled_adds", "count", false},
        {"fill.promoted_branches", "count", false},
        {"trace.hit_rate", "frac", false},
        {"trace.installs", "count", false},
        {"trace.replacements", "count", false},
        {"trace.installs_per_kinst", "1/kinst", false},
        {"uarch.selected", "count", false},
        {"uarch.select_useful_frac", "frac", false},
        {"uarch.rename_aliases", "count", false},
        {"uarch.mem_sched_stalls", "count", false},
        {"uarch.bypass_delayed_frac", "frac", false},
        {"bpred.accuracy", "frac", false},
        {"bpred.mispredicts", "count", false},
        {"bpred.inactive_rescues", "count", false},
        {"mem.l1i_misses", "count", false},
        {"mem.l1d_misses", "count", false},
        {"mem.l2_misses", "count", false},
        {"workloads.build_s", "s", false},
        {"arch.step_insts_per_s", "1/s", false},
        {"arch.checkpoint_s", "s", false},
        {"arch.checkpoints", "count", false},
        {"arch.checkpoint_pages", "count", false},
        {"arch.restore_s", "s", false},
        {"arch.restored_pages", "count", false},
        {"arch.fastforward_s", "s", false},
        {"arch.ff_insts", "count", false},
        {"tracefile.profile_s", "s", false},
        {"tracefile.measure_s", "s", false},
        {"tracefile.simpoints", "count", false},
        {"service.store_get_us", "us", false},
        {"service.codec_us", "us", false},
        {"service.dispatch_us", "us", false},
        {"service.store_hits", "count", false},
        {"service.store_puts", "count", false},
        {"service.computed", "count", false},
        {"service.coalesced", "count", false},
        {"service.store_log_bytes", "bytes", false},
        {"obs.trace_overhead_frac", "frac", false},
    };
    return table;
}

// --------------------------------------------------------------------
// Report
// --------------------------------------------------------------------

void
Report::set(const std::string &name, double value)
{
    const auto &t = metricTable();
    fatal_if(std::none_of(t.begin(), t.end(),
                          [&](const MetricSpec &m) {
                              return name == m.name;
                          }),
             "unknown metric '%s'", name.c_str());
    for (auto &[n, v] : metrics_) {
        if (n == name) {
            v = value;
            return;
        }
    }
    metrics_.emplace_back(name, value);
}

bool
Report::has(const std::string &name) const
{
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const auto &m) { return m.first == name; });
}

double
Report::get(const std::string &name) const
{
    for (const auto &[n, v] : metrics_) {
        if (n == name)
            return v;
    }
    return 0.0;
}

bool
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "tcbench: FAILED: %s\n", what.c_str());
    }
    return ok;
}

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

Spans::Spans(obs::TraceEventWriter *ev) : ev_(ev) {}

Spans::Scope::Scope(Spans &s, std::string_view name)
    : s_(s), id_(s.spans_.size()), on_(s.active_)
{
    if (!on_)
        return;
    const std::size_t parent =
        s_.open_.empty() ? kNoParent : s_.open_.back();
    s_.spans_.push_back(
        Span{std::string(name), parent, s_.ev_->nowUs(), 0.0});
    s_.open_.push_back(id_);
}

Spans::Scope::~Scope()
{
    if (!on_)
        return;
    Span &sp = s_.spans_[id_];
    sp.durUs = s_.ev_->nowUs() - sp.startUs;
    s_.open_.pop_back();
    if (sp.parent != kNoParent)
        s_.spans_[sp.parent].childUs += sp.durUs;
}

std::size_t
Spans::aggregate(std::size_t parent, std::string name, double seconds)
{
    Span &p = spans_[parent];
    const double dur = seconds * 1e6;
    Span child{std::move(name), parent, p.startUs + p.nextChildUs, dur};
    p.nextChildUs += dur;
    p.childUs += dur;
    spans_.push_back(std::move(child));
    return spans_.size() - 1;
}

void
Spans::profilerChildren(std::size_t parent,
                        const obs::HostProfiler &prof)
{
    // Self-profiler section -> layer span name. "checkpoint" captures
    // happen inside the "profile" pass, so they nest under it.
    static const std::pair<const char *, const char *> kNames[] = {
        {"fill", "fill.tick"},
        {"recovery", "pipeline.recovery"},
        {"retire", "pipeline.retire"},
        {"dispatch", "pipeline.dispatch"},
        {"fetch", "pipeline.fetch"},
        {"issue", "pipeline.issue"},
        {"profile", "tracefile.profile"},
        {"checkpoint", "arch.checkpoint"},
        {"restore", "arch.restore"},
        {"fastForward", "arch.fastforward"},
        {"measure", "tracefile.measure"},
    };
    std::size_t profile = kNoParent;
    for (const obs::HostProfiler::Row &row : prof.rows()) {
        std::string name = row.name;
        for (const auto &[from, to] : kNames) {
            if (name == from)
                name = to;
        }
        const bool nested =
            name == "arch.checkpoint" && profile != kNoParent;
        const std::size_t id =
            aggregate(nested ? profile : parent, name, row.seconds);
        if (name == "tracefile.profile")
            profile = id;
    }
}

double
Spans::totalSeconds(std::string_view name) const
{
    double us = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            us += s.durUs;
    }
    return us * 1e-6;
}

double
Spans::selfSeconds(std::string_view name) const
{
    double us = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            us += s.durUs - s.childUs;
    }
    return us * 1e-6;
}

void
Spans::write()
{
    if (!ev_)
        return;
    constexpr int kPid = 3;
    ev_->processName(kPid, "tcbench layer spans (wall clock)");
    ev_->threadName(kPid, 1, "benchmark");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char args[64];
        std::snprintf(args, sizeof(args), "\"span\": %zu, \"parent\": %lld",
                      i,
                      s.parent == kNoParent
                          ? -1LL
                          : static_cast<long long>(s.parent));
        ev_->complete(kPid, 1, s.name, s.startUs, s.durUs, args);
    }
}

// --------------------------------------------------------------------
// Statistics helpers
// --------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

// --------------------------------------------------------------------
// Host reference
// --------------------------------------------------------------------

namespace
{

constexpr std::size_t kRefEntries = 200'000;
constexpr unsigned kRefOps = 100'000;
/** A piece's time on a quiet 4-vCPU Xeon virtual machine. */
constexpr double kRefNominalS = 0.0055;

} // namespace

HostRef::HostRef()
{
    std::mt19937_64 rng(0x7463'6265'6e63'6801ull);
    table_.reserve(kRefEntries);
    while (table_.size() < kRefEntries)
        table_.emplace(rng(), 0);
    keys_.reserve(kRefEntries);
    for (const auto &kv : table_)
        keys_.push_back(kv.first);
}

double
HostRef::factor()
{
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kRefOps; ++i) {
        cursor_ = (cursor_ + 2654435761u) % keys_.size();
        ++table_.find(keys_[cursor_])->second;
    }
    return kRefNominalS / secondsSince(t0);
}

// --------------------------------------------------------------------
// Shared workload steps
// --------------------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
buildPrograms(const std::vector<std::string> &names, unsigned scale,
              Spans &spans, std::vector<Program> &progs)
{
    progs.clear();
    return timed(spans, "workloads.build", [&] {
        for (const std::string &n : names)
            progs.push_back(workloads::build(n, scale));
    });
}

std::vector<InstSeqNum>
functionalCounts(const std::vector<Program> &progs, Spans &spans,
                 Report &rep)
{
    std::vector<InstSeqNum> counts;
    double seconds = 0;
    InstSeqNum total = 0;
    for (const Program &p : progs) {
        InstSeqNum n = 0;
        seconds += timed(spans, "arch.functional",
                         [&] { n = runFunctional(p); });
        counts.push_back(n);
        total += n;
    }
    rep.set("arch.step_insts_per_s",
            static_cast<double>(total) / seconds);
    return counts;
}

HitProbe::HitProbe(
    const std::string &dir,
    std::vector<std::pair<std::string, std::string>> records, Report &rep)
    : records_(std::move(records))
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    auto store = std::make_unique<service::ResultStore>(dir);
    std::string err;
    if (!rep.check(store->load(err), "result store open: " + err))
        return;
    for (const auto &[key, record] : records_)
        rep.check(store->put(key, record), "result store put " + key);
    store_ = std::move(store);
}

HitProbe::~HitProbe() = default;

void
HitProbe::batch(Spans &spans, double factor)
{
    if (!store_ || records_.empty())
        return;
    Spans::Scope scope(spans, "service.store_probe");
    std::vector<double> us;
    us.reserve(kHitBatch);
    std::string err;
    for (unsigned i = 0; i < kHitBatch; ++i) {
        const auto &[key, record] = records_[i % records_.size()];
        std::string value;
        SimResult parsed;
        const auto t0 = Clock::now();
        const bool ok = store_->get(key, value) &&
            resultFromRecordText(value, parsed, err);
        us.push_back(secondsSince(t0) * 1e6 * factor);
        if (!ok || value != record)
            ++bad_;
    }
    p50_.push_back(median(us));
    p99_.push_back(quantile(std::move(us), 0.99));
}

void
HitProbe::report(Report &rep) const
{
    rep.check(store_ && bad_ == 0,
              std::to_string(bad_) +
                  " result-store reads returned a wrong record");
    rep.set("hit_p50_us", median(p50_));
    rep.set("hit_p99_us", median(p99_));
    rep.notes.push_back("hit latency: median of " +
                        std::to_string(p50_.size()) + " batches of " +
                        std::to_string(kHitBatch) +
                        " local result-store reads over " +
                        std::to_string(records_.size()) + " records");
}

} // namespace tcbench
