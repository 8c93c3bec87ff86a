/**
 * @file
 * Reproduces paper Fig. 12: DX100 vs the DMP-style indirect prefetcher
 * — (a) speedup (paper geomean 2.0x) and (b) bandwidth utilization
 * (paper 3.3x higher for DX100). The dx100 column uses the paper_main
 * tag and config, so its cells match fig09's dx100 cells.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sim/run_matrix.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

RunMatrix
dmpMatrix()
{
    RunMatrix m("dmp_compare");
    m.addWorkloads(wl::paperWorkloads());
    m.addConfig("dmp", SystemConfig::withDmp());
    m.addConfig("dx100", SystemConfig::withDx100());
    return m;
}

void
formatDmpTable(const MatrixResult &r)
{
    std::printf("%-8s %14s %14s %9s | %6s %6s %6s\n", "kernel",
                "dmp cycles", "dx100 cycles", "speedup", "bw.dmp",
                "bw.dx", "ratio");
    std::vector<double> speedups, bwRatios;
    for (const auto &w : r.workloads()) {
        const CellResult &dmp = r.cell(w.name, "dmp");
        const CellResult &dx = r.cell(w.name, "dx100");
        if (!dmp.ok || !dx.ok) {
            std::printf("%-8s %14s\n", w.name.c_str(), "FAILED");
            continue;
        }
        const double speedup =
            static_cast<double>(dmp.stats.cycles) / dx.stats.cycles;
        const double bwR = dx.stats.bandwidthUtil /
                           std::max(dmp.stats.bandwidthUtil, 1e-9);
        speedups.push_back(speedup);
        bwRatios.push_back(bwR);

        std::printf("%-8s %14llu %14llu %8.2fx | %6.3f %6.3f %5.1fx\n",
                    w.name.c_str(),
                    static_cast<unsigned long long>(dmp.stats.cycles),
                    static_cast<unsigned long long>(dx.stats.cycles),
                    speedup, dmp.stats.bandwidthUtil,
                    dx.stats.bandwidthUtil, bwR);
    }
    std::printf("%-8s %29s %8.2fx | %12s %6.1fx\n", "geomean",
                "(paper 2.0x)", geomean(speedups), "(paper 3.3x)",
                geomean(bwRatios));
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Fig. 12 - DX100 vs DMP indirect prefetcher",
                     opt);

    const MatrixResult result = dmpMatrix().run(opt);
    formatDmpTable(result);
    maybeWriteJson(result, "fig12", opt);
    return result.failures() == 0 ? 0 : 1;
}
