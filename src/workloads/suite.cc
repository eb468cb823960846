#include "workloads/suite.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace tcfill::workloads
{

const std::vector<Workload> &
suite()
{
    static const std::vector<Workload> s = {
        {"compress", "comp", true,
         "LZW hash-table compressor over synthetic text",
         buildCompress},
        {"gcc", "gcc", true,
         "graph-coloring register allocator over random graphs",
         buildGcc},
        {"go", "go", true,
         "territory/liberty evaluation over a 19x19 board", buildGo},
        {"ijpeg", "ijpeg", true,
         "integer 8x8 DCT and quantization over an image", buildIjpeg},
        {"li", "li", true,
         "cons-cell list interpreter with recursive walks", buildLi},
        {"m88ksim", "m88k", true,
         "RISC CPU interpreter: decode fields, dispatch, execute",
         buildM88ksim},
        {"perl", "perl", true,
         "string hashing and associative-array scanning", buildPerl},
        {"vortex", "vor", true,
         "in-memory DB: hashed lookups and record updates",
         buildVortex},
        {"gnuchess", "ch", false,
         "alpha-beta minimax with piece-square table evaluation",
         buildChess},
        {"ghostscript", "gs", false,
         "fixed-point edge stepping and span rasterization",
         buildGhostscript},
        {"pgp", "pgp", false,
         "multi-precision modular multiplication (bignum)", buildPgp},
        {"gnuplot", "plot", false,
         "fixed-point polynomial function sampling and clipping",
         buildGnuplot},
        {"python", "py", false,
         "bytecode stack-VM interpreter", buildPython},
        {"sim-outorder", "ss", false,
         "event-queue instruction scheduler with dependence bitmaps",
         buildSimOutorder},
        {"tex", "tex", false,
         "hyphenation trie walk and least-badness line breaking",
         buildTex},
    };
    return s;
}

const Workload &
find(const std::string &name)
{
    for (const auto &w : suite()) {
        if (w.name == name || w.shortName == name)
            return w;
    }
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
parseList(const std::string &spec)
{
    std::vector<std::string> names;
    if (spec == "all") {
        for (const auto &w : suite())
            names.push_back(w.name);
        return names;
    }
    for (std::size_t pos = 0; pos <= spec.size();) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        if (comma > pos)
            names.push_back(find(spec.substr(pos, comma - pos)).name);
        pos = comma + 1;
    }
    fatal_if(names.empty(), "no workloads in '%s'", spec.c_str());
    return names;
}

Program
build(const std::string &name, unsigned scale)
{
    return find(name).build(scale);
}

} // namespace tcfill::workloads
