/**
 * @file
 * Reproduces paper Fig. 8(a): all-hit microbenchmarks with streaming
 * indices (B[i] = i). Paper speedups: Gather-SPD 1.2x, Gather-Full
 * 3.2x, RMW vs atomic baseline 17.8x, RMW vs non-atomic 3.7x, Scatter
 * 6.6x (single-core configs).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/run_matrix.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

namespace
{

constexpr std::size_t kN = std::size_t{1} << 18;

struct Row
{
    std::string name;
    std::string baseTag;
    std::string dxTag;
    std::string paper;
};

const std::vector<Row> kRows = {
    {"Gather-SPD", "baseline", "dx100", "1.2x"},
    {"Gather-Full", "baseline", "dx100", "3.2x"},
    {"RMW-Atomic", "baseline", "dx100", "17.8x"},
    {"RMW-NoAtom", "baseline", "dx100", "3.7x"},
    {"Scatter", "baseline_1c", "dx100_1c", "6.6x"},
};

WorkloadSpec
micro(std::string name, wl::WorkloadFactory make)
{
    // Fixed-size micros ignore Scale.
    return {std::move(name), "micro", std::move(make)};
}

RunMatrix
allHitMatrix()
{
    RunMatrix m("allhit_micro");
    m.add(micro("Gather-SPD", [](Scale) {
        return std::make_unique<GatherMicro>(GatherMicro::Mode::kSpd,
                                             kN);
    }));
    m.add(micro("Gather-Full", [](Scale) {
        return std::make_unique<GatherMicro>(GatherMicro::Mode::kFull,
                                             kN);
    }));
    m.add(micro("RMW-Atomic", [](Scale) {
        return std::make_unique<RmwMicro>(kN, /*atomicBaseline=*/true);
    }));
    m.add(micro("RMW-NoAtom", [](Scale) {
        return std::make_unique<RmwMicro>(kN, false);
    }));
    m.add(micro("Scatter", [](Scale) {
        return std::make_unique<ScatterMicro>(kN, /*streaming=*/true);
    }));

    m.addConfig("baseline", SystemConfig::baseline());
    m.addConfig("dx100", SystemConfig::withDx100());

    // Scatter cannot be parallelized safely: 1-core configs, with the
    // paper's 4MB/2MB LLC split.
    SystemConfig bc = SystemConfig::baseline(1);
    bc.llc.sizeBytes = 4 * 1024 * 1024;
    bc.llc.assoc = 16;
    m.addConfig("baseline_1c", bc);
    SystemConfig dc = SystemConfig::withDx100(1);
    dc.llc.sizeBytes = 2 * 1024 * 1024;
    dc.llc.assoc = 16;
    m.addConfig("dx100_1c", dc);

    for (const auto &row : kRows)
        m.limit(row.name, {row.baseTag, row.dxTag});
    return m;
}

void
formatAllHitTable(const MatrixResult &r)
{
    std::printf("%-12s %9s %9s\n", "kernel", "speedup", "paper");
    for (const auto &row : kRows) {
        const CellResult &base = r.cell(row.name, row.baseTag);
        const CellResult &dx = r.cell(row.name, row.dxTag);
        if (!base.ok || !dx.ok) {
            std::printf("%-12s %9s %9s\n", row.name.c_str(), "FAILED",
                        row.paper.c_str());
            continue;
        }
        std::printf("%-12s %8.2fx %9s\n", row.name.c_str(),
                    static_cast<double>(base.stats.cycles) /
                        dx.stats.cycles,
                    row.paper.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Fig. 8(a) - all-hit microbenchmarks", opt);

    const MatrixResult result = allHitMatrix().run(opt);
    formatAllHitTable(result);
    maybeWriteJson(result, "fig08a", opt);
    return result.failures() == 0 ? 0 : 1;
}
