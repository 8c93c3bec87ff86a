/**
 * @file
 * Reproduces paper Fig. 9: DX100 speedup over the 4-core baseline for
 * the 12 evaluation workloads (geomean reported 2.6x in the paper).
 *
 * Shares its run matrix definition (RunMatrix::paperMain) with
 * fig10/fig11 by construction.
 */

#include <cstdio>
#include <vector>

#include "sim/run_matrix.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

void
formatSpeedupTable(const MatrixResult &r)
{
    std::printf("%-8s %-10s %14s %14s %9s\n", "kernel", "suite",
                "base cycles", "dx100 cycles", "speedup");
    std::vector<double> speedups;
    for (const auto &w : r.workloads()) {
        const CellResult &base = r.cell(w.name, "baseline");
        const CellResult &dx = r.cell(w.name, "dx100");
        if (!base.ok || !dx.ok) {
            std::printf("%-8s %-10s %14s\n", w.name.c_str(),
                        w.suite.c_str(), "FAILED");
            continue;
        }
        const double speedup =
            static_cast<double>(base.stats.cycles) / dx.stats.cycles;
        speedups.push_back(speedup);
        std::printf("%-8s %-10s %14llu %14llu %8.2fx\n",
                    w.name.c_str(), w.suite.c_str(),
                    static_cast<unsigned long long>(base.stats.cycles),
                    static_cast<unsigned long long>(dx.stats.cycles),
                    speedup);
    }
    std::printf("%-8s %-10s %14s %14s %8.2fx   (paper: 2.6x)\n",
                "geomean", "", "", "", geomean(speedups));
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Fig. 9 - DX100 speedup over 4-core baseline",
                     opt);

    const MatrixResult result = RunMatrix::paperMain().run(opt);
    formatSpeedupTable(result);
    maybeWriteJson(result, "fig09", opt);
    return result.failures() == 0 ? 0 : 1;
}
