/**
 * @file
 * Reproduces paper Fig. 14: scalability with core count and DX100
 * instance count. Paper: 2.6x speedup with 4 cores / 1 instance, 2.5x
 * with 8 cores / 1 instance (4 channels), 2.7x with 8 cores / 2
 * instances (core multiplexing + region coherence).
 *
 * The 4-core pair uses the paper_main tags and configs, so those 24
 * cells match fig09/10/11. The 8-core columns carry a 2x scale
 * multiplier (the paper doubles the dataset with the cores).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/run_matrix.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

RunMatrix
scalabilityMatrix()
{
    RunMatrix m("scalability");
    m.addWorkloads(wl::paperWorkloads());

    m.addConfig("baseline", SystemConfig::baseline(4));
    m.addConfig("dx100", SystemConfig::withDx100(4, 1));

    m.addConfig("baseline8", SystemConfig::baseline(8), 2.0);
    // A single instance serving 8 cores gets a near-doubled
    // scratchpad (paper: one 4MB instance vs two 2MB instances);
    // tile ids are 6-bit with 0x3f reserved, capping at 60 tiles.
    SystemConfig c8i1 = SystemConfig::withDx100(8, 1);
    c8i1.dx.numTiles = 60;
    m.addConfig("dx100_c8i1", c8i1, 2.0);
    m.addConfig("dx100_c8i2", SystemConfig::withDx100(8, 2), 2.0);
    return m;
}

double
geomeanSpeedup(const MatrixResult &r, const std::string &baseTag,
               const std::string &dxTag)
{
    std::vector<double> speedups;
    for (const auto &w : r.workloads()) {
        const CellResult &base = r.cell(w.name, baseTag);
        const CellResult &dx = r.cell(w.name, dxTag);
        if (!base.ok || !dx.ok)
            continue;
        speedups.push_back(static_cast<double>(base.stats.cycles) /
                           dx.stats.cycles);
    }
    return geomean(speedups);
}

void
formatScalabilityTable(const MatrixResult &r)
{
    std::printf("%-26s %9s %9s\n", "configuration", "geomean",
                "paper");
    std::printf("%-26s %8.2fx %9s\n", "4 cores, 1 instance",
                geomeanSpeedup(r, "baseline", "dx100"), "2.6x");
    std::printf("%-26s %8.2fx %9s\n", "8 cores, 1 instance (4ch)",
                geomeanSpeedup(r, "baseline8", "dx100_c8i1"), "2.5x");
    std::printf("%-26s %8.2fx %9s\n", "8 cores, 2 instances",
                geomeanSpeedup(r, "baseline8", "dx100_c8i2"), "2.7x");
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Fig. 14 - scalability (cores x instances)", opt);

    const MatrixResult result = scalabilityMatrix().run(opt);
    formatScalabilityTable(result);
    maybeWriteJson(result, "fig14", opt);
    return result.failures() == 0 ? 0 : 1;
}
