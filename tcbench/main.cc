/**
 * @file
 * tcbench: the tcfill benchmark (README.md). Runs one workload, or
 * all four in one process, for a fixed time; checks every output;
 * prints every metric by name with its unit, the digest of every
 * simulated statistic and the host fingerprint; and writes a results
 * document (plus, for a traced run, a Chrome trace-event file) under
 * the run directory. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}},
 * with the end-to-end metrics untraced and the per-layer ones traced.
 *
 * Usage:
 *   tcbench --workload tc-hot|tc-thrash|sampled|svc-mixed|all
 *           [--seed N] [--seconds S] [--trace 0|1] [--run-dir DIR]
 *           [--reference FILE] [--commit ID]
 *   tcbench --make-reference FILE
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "obs/json.hh"
#include "obs/trace_events.hh"

using namespace tcbench;
using tcfill::obs::jsonNumber;

namespace
{

/** Workloads in the order `all` runs them: svc-mixed forks first. */
const char *const kWorkloads[] = {"svc-mixed", "tc-hot", "tc-thrash",
                                  "sampled"};

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: tcbench --workload NAME [--seed N] [--seconds S]\n"
        "               [--trace 0|1] [--run-dir DIR]\n"
        "               [--reference FILE] [--commit ID]\n"
        "       tcbench --make-reference FILE\n"
        "  NAME: tc-hot, tc-thrash, sampled, svc-mixed or all\n";
    std::exit(2);
}

/** What the numbers of one results document were measured on. */
struct Fingerprint
{
    unsigned nproc = 0;
    std::string cpu = "unknown";
    std::string compiler = __VERSION__;
    std::string buildType = TCBENCH_BUILD_TYPE;
    std::string commit = "unknown";
    /** Fixed-work xorshift loop, steps per second (best of 3). */
    double calibration = 0;
};

double
calibrationRate()
{
    constexpr std::uint64_t kSteps = 1ull << 26;
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t x = 0x9e3779b97f4a7c15ull + rep;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        const double s = secondsSince(t0);
        volatile std::uint64_t sink = x;
        (void)sink;
        best = std::max(best, static_cast<double>(kSteps) / s);
    }
    return best;
}

Fingerprint
fingerprint(const std::string &commit)
{
    Fingerprint f;
    f.nproc = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                f.cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    if (!commit.empty())
        f.commit = commit;
    f.calibration = calibrationRate();
    return f;
}

Report
runWorkload(const std::string &name, const Options &o, Spans &spans)
{
    if (name == "tc-hot" || name == "tc-thrash")
        return runTraceCache(o, name == "tc-hot", spans);
    if (name == "sampled")
        return runSampledWorkload(o, spans);
    return runService(o, spans);
}

/** The metrics this run prints: end to end, or per layer if traced. */
std::vector<MetricSpec>
printedMetrics(bool trace)
{
    std::vector<MetricSpec> out;
    for (const MetricSpec &m : metricTable()) {
        if (m.endToEnd != trace)
            out.push_back(m);
    }
    return out;
}

void
writeResults(const std::string &path, const std::string &workload,
             const Options &o, const Fingerprint &fp, const Report &rep)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "tcbench: cannot write %s\n", path.c_str());
        return;
    }
    tcfill::obs::JsonWriter w(os);
    w.beginObject();
    w.field("schema", "tcbench-results-v1");
    w.field("workload", workload);
    w.field("seed", o.seed);
    w.field("seconds", o.seconds);
    w.field("trace", o.trace);
    w.beginObject("host");
    w.field("nproc", fp.nproc);
    w.field("cpu", fp.cpu);
    w.field("compiler", fp.compiler);
    w.field("build_type", fp.buildType);
    w.field("commit", fp.commit);
    w.field("calibration_steps_per_s", fp.calibration);
    w.endObject();
    w.field("digest", rep.digest);
    w.field("attempted", rep.attempted());
    w.field("failed", rep.failed());
    w.beginObject("metrics");
    for (const MetricSpec &m : metricTable()) {
        if (!rep.has(m.name))
            continue;
        w.beginObject(m.name);
        w.field("value", rep.get(m.name));
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.beginArray("notes");
    for (const std::string &n : rep.notes)
        w.value(n);
    w.endArray();
    w.endObject();
    w.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string workload, commit, make_reference;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(next().c_str(), nullptr);
            if (!(o.seconds > 0))
                usage();
        } else if (arg == "--trace") {
            const std::string t = next();
            if (t != "0" && t != "1")
                usage();
            o.trace = t == "1";
        } else if (arg == "--run-dir") {
            o.runDir = next();
        } else if (arg == "--reference") {
            o.reference = next();
        } else if (arg == "--commit") {
            commit = next();
        } else if (arg == "--make-reference") {
            make_reference = next();
        } else {
            usage();
        }
    }
    if (!make_reference.empty())
        return makeSampleReference(make_reference);

    std::vector<std::string> names;
    for (const char *w : kWorkloads) {
        if (workload == w || workload == "all")
            names.push_back(w);
    }
    if (names.empty())
        usage();

    std::error_code ec;
    std::filesystem::create_directories(o.runDir, ec);

    // Fingerprint before any workload: svc-mixed must fork first.
    const Fingerprint fp = fingerprint(commit);
    std::printf("host: nproc %u, cpu %s, compiler %s, build %s, "
                "commit %s, calibration %.4g steps/s\n",
                fp.nproc, fp.cpu.c_str(), fp.compiler.c_str(),
                fp.buildType.c_str(), fp.commit.c_str(), fp.calibration);

    std::uint64_t attempted = 0, failed = 0;
    std::ostringstream metrics_json;
    bool first_metric = true;
    for (const std::string &name : names) {
        std::printf("== %s  seed %llu  %.4g s  %s\n", name.c_str(),
                    static_cast<unsigned long long>(o.seed), o.seconds,
                    o.trace ? "traced" : "untraced");
        std::fflush(stdout);

        std::ostringstream trace_buf;
        std::unique_ptr<tcfill::obs::TraceEventWriter> ev;
        if (o.trace)
            ev = std::make_unique<tcfill::obs::TraceEventWriter>(trace_buf);
        Spans spans(ev.get());
        Report rep = runWorkload(name, o, spans);

        if (!rep.has("peak_rss_mb"))
            rep.set("peak_rss_mb", peakRssMb());

        const std::string stem = o.runDir + "/" + name + "-seed" +
            std::to_string(o.seed);
        if (ev) {
            spans.write();
            ev->close();
            const std::string path = stem + "-trace.json";
            std::ofstream tf(path);
            tf << trace_buf.str();
            rep.check(static_cast<bool>(tf), "cannot write " + path);
            std::printf("  trace events: %s\n", path.c_str());
        }
        for (const MetricSpec &m : printedMetrics(o.trace)) {
            const std::string n = m.name;
            if (n == "ok_frac")
                continue;
            if (m.endToEnd && !rep.has(n))
                rep.check(false, name + " did not measure " + n);
            if (!std::isfinite(rep.get(n))) {
                rep.check(false, n + " is not finite");
                rep.set(n, 0.0);
            }
        }
        rep.check(rep.attempted() > 0, name + " checked nothing");
        rep.set("ok_frac",
                1.0 - static_cast<double>(rep.failed()) /
                          static_cast<double>(rep.attempted()));

        for (const std::string &n : rep.notes)
            std::printf("  %s\n", n.c_str());
        std::printf("  digest %s (every simulated statistic, seed %llu)\n",
                    rep.digest.c_str(),
                    static_cast<unsigned long long>(o.seed));
        for (const MetricSpec &m : printedMetrics(o.trace)) {
            const double v = rep.get(m.name);
            std::printf("  %-34s %14.6g %s\n", m.name, v, m.unit);
            metrics_json << (first_metric ? "" : ", ") << '"'
                         << (names.size() > 1 ? name + "/" : "") << m.name
                         << "\": {\"value\": " << jsonNumber(v)
                         << ", \"unit\": \"" << m.unit << "\"}";
            first_metric = false;
        }
        std::printf("  checked operations: %llu attempted, %llu failed\n",
                    static_cast<unsigned long long>(rep.attempted()),
                    static_cast<unsigned long long>(rep.failed()));
        writeResults(stem + "-trace" + std::to_string(o.trace) +
                         "-results.json",
                     name, o, fp, rep);
        attempted += rep.attempted();
        failed += rep.failed();
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics_json.str().c_str());
    return failed == 0 ? 0 : 1;
}
