/**
 * @file
 * Registry of the benchmark suite (paper Table 1 analog).
 */

#ifndef TCFILL_WORKLOADS_SUITE_HH
#define TCFILL_WORKLOADS_SUITE_HH

#include <functional>
#include <string>
#include <vector>

#include "asm/program.hh"

namespace tcfill::workloads
{

/** One suite entry. */
struct Workload
{
    std::string name;       ///< paper benchmark name, e.g. "m88ksim"
    std::string shortName;  ///< figure axis label, e.g. "m88k"
    bool specint;           ///< member of SPECint95 (vs UNIX apps)
    std::string traits;     ///< one-line description of the kernel
    std::function<Program(unsigned)> build;
};

/** The full 15-benchmark suite, in the paper's order. */
const std::vector<Workload> &suite();

/** Look up one benchmark by (short or full) name; fatals if unknown. */
const Workload &find(const std::string &name);

/**
 * The full names a command-line workload list selects: "all", or a
 * comma list of names (empty tokens skipped). Fatal on an unknown name
 * or a list that names none.
 */
std::vector<std::string> parseList(const std::string &spec);

/** Build a benchmark's program at the given scale. */
Program build(const std::string &name, unsigned scale = 1);

} // namespace tcfill::workloads

#endif // TCFILL_WORKLOADS_SUITE_HH
