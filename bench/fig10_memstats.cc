/**
 * @file
 * Reproduces paper Fig. 10: (a) DRAM bandwidth utilization, (b) row
 * buffer hit rate, and (c) request buffer occupancy, baseline vs
 * DX100 (paper averages: 3.9x bandwidth, 2.7x row hits, 12.1x
 * occupancy). Shares RunMatrix::paperMain with fig09/11.
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
formatMemStatsTable(const MatrixResult &r)
{
    std::printf("%-8s | %6s %6s %6s | %6s %6s %6s | %7s %7s %7s\n",
                "kernel", "bw.b", "bw.dx", "ratio", "rbh.b", "rbh.dx",
                "ratio", "occ.b", "occ.dx", "ratio");
    std::vector<double> bwRatios, rbhRatios, occRatios;
    for (const auto &w : r.workloads()) {
        const CellResult &base = r.cell(w.name, "baseline");
        const CellResult &dx = r.cell(w.name, "dx100");
        if (!base.ok || !dx.ok) {
            std::printf("%-8s | %6s\n", w.name.c_str(), "FAILED");
            continue;
        }
        const RunStats &b = base.stats;
        const RunStats &d = dx.stats;

        const double bwR =
            d.bandwidthUtil / std::max(b.bandwidthUtil, 1e-9);
        const double rbhR =
            d.rowBufferHitRate / std::max(b.rowBufferHitRate, 1e-9);
        const double occR =
            d.requestBufferOccupancy /
            std::max(b.requestBufferOccupancy, 1e-9);
        bwRatios.push_back(bwR);
        rbhRatios.push_back(rbhR);
        occRatios.push_back(occR);

        std::printf("%-8s | %6.3f %6.3f %5.1fx | %6.3f %6.3f %5.1fx |"
                    " %7.4f %7.4f %5.1fx\n",
                    w.name.c_str(), b.bandwidthUtil, d.bandwidthUtil,
                    bwR, b.rowBufferHitRate, d.rowBufferHitRate, rbhR,
                    b.requestBufferOccupancy, d.requestBufferOccupancy,
                    occR);
    }
    std::printf("%-8s | %13s %5.1fx | %13s %5.1fx | %15s %5.1fx\n",
                "mean", "(paper 3.9x)", geomean(bwRatios),
                "(paper 2.7x)", geomean(rbhRatios), "(paper 12.1x)",
                geomean(occRatios));
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader(
        "Fig. 10 - bandwidth / row-buffer hits / occupancy", opt);

    const MatrixResult result = RunMatrix::paperMain().run(opt);
    formatMemStatsTable(result);
    maybeWriteJson(result, "fig10", opt);
    return result.failures() == 0 ? 0 : 1;
}
