/**
 * @file
 * Reproduces paper Fig. 11: (a) core instruction reduction (geomean
 * 3.6x in the paper) and (b) cache MPKI reduction (avg 6.1x). Shares
 * RunMatrix::paperMain with fig09/10.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sim/run_matrix.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

void
formatInstrMpkiTable(const MatrixResult &r)
{
    std::printf("%-8s | %12s %12s %7s | %8s %8s %7s\n", "kernel",
                "instr.base", "instr.dx", "ratio", "mpki.b", "mpki.dx",
                "ratio");
    std::vector<double> instrRatios, mpkiRatios;
    for (const auto &w : r.workloads()) {
        const CellResult &base = r.cell(w.name, "baseline");
        const CellResult &dx = r.cell(w.name, "dx100");
        if (!base.ok || !dx.ok) {
            std::printf("%-8s | %12s\n", w.name.c_str(), "FAILED");
            continue;
        }
        const RunStats &b = base.stats;
        const RunStats &d = dx.stats;

        const double ir =
            static_cast<double>(b.instructions) /
            std::max<std::uint64_t>(d.instructions, 1);
        // LLC demand MPKI; DX100-originated traffic excluded.
        const double mb = std::max(b.llcMpki, 1e-3);
        const double md = std::max(d.llcMpki, 1e-3);
        const double mr = mb / md;
        instrRatios.push_back(ir);
        mpkiRatios.push_back(mr);

        std::printf("%-8s | %12llu %12llu %6.2fx | %8.2f %8.2f "
                    "%6.1fx\n",
                    w.name.c_str(),
                    static_cast<unsigned long long>(b.instructions),
                    static_cast<unsigned long long>(d.instructions),
                    ir, b.llcMpki, d.llcMpki, mr);
    }
    std::printf("%-8s | %26s %6.2fx | %11s %10.1fx\n", "geomean",
                "(paper 3.6x)", geomean(instrRatios), "(paper 6.1x)",
                geomean(mpkiRatios));
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Fig. 11 - instruction and MPKI reduction", opt);

    const MatrixResult result = RunMatrix::paperMain().run(opt);
    formatInstrMpkiTable(result);
    maybeWriteJson(result, "fig11", opt);
    return result.failures() == 0 ? 0 : 1;
}
