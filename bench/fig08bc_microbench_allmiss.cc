/**
 * @file
 * Reproduces paper Fig. 8(b,c): all-miss Gather-Full over 64K unique
 * indices arranged to produce controlled baseline row-buffer hit rates
 * and channel / bank-group interleaving. The paper reports DX100
 * speedups from 9.9x (worst index order) down to 1.7x (best), with
 * DX100 bandwidth utilization flat at 82-85% regardless of order.
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

constexpr std::size_t kN = 64 * 1024;

struct Point
{
    std::string label;
    DramPatternParams pat;
};

std::vector<Point>
patternPoints()
{
    std::vector<Point> points;
    for (unsigned rbh : {0u, 25u, 50u, 75u, 100u}) {
        DramPatternParams p;
        p.rbhPercent = rbh;
        p.channelInterleave = false;
        p.bankGroupInterleave = false;
        points.push_back({"RBH" + std::to_string(rbh), p});
    }
    {
        DramPatternParams p;
        p.rbhPercent = 100;
        p.channelInterleave = true;
        p.bankGroupInterleave = false;
        points.push_back({"RBH100+CHI", p});
    }
    {
        DramPatternParams p;
        p.rbhPercent = 100;
        p.channelInterleave = true;
        p.bankGroupInterleave = true;
        points.push_back({"RBH100+CHI+BGI", p});
    }
    return points;
}

RunMatrix
allMissMatrix()
{
    RunMatrix m("allmiss_micro");
    for (const auto &pt : patternPoints()) {
        const DramPatternParams pat = pt.pat;
        m.add({pt.label, "micro",
               [pat](Scale) -> std::unique_ptr<Workload> {
                   return std::make_unique<GatherMicro>(
                       GatherMicro::Mode::kFull, kN, pat);
               }});
    }
    m.addConfig("baseline", SystemConfig::baseline());
    m.addConfig("dx100", SystemConfig::withDx100());
    return m;
}

void
formatAllMissTable(const MatrixResult &r)
{
    std::printf("%-16s %9s | %6s %6s | %6s %6s\n", "index order",
                "speedup", "bw.b", "bw.dx", "rbh.b", "rbh.dx");
    for (const auto &w : r.workloads()) {
        const CellResult &base = r.cell(w.name, "baseline");
        const CellResult &dx = r.cell(w.name, "dx100");
        if (!base.ok || !dx.ok) {
            std::printf("%-16s %9s\n", w.name.c_str(), "FAILED");
            continue;
        }
        const RunStats &b = base.stats;
        const RunStats &d = dx.stats;
        std::printf("%-16s %8.2fx | %6.3f %6.3f | %6.3f %6.3f\n",
                    w.name.c_str(),
                    static_cast<double>(b.cycles) / d.cycles,
                    b.bandwidthUtil, d.bandwidthUtil,
                    b.rowBufferHitRate, d.rowBufferHitRate);
    }
    std::printf("(paper: speedup 9.9x at worst order -> 1.7x at best; "
                "DX100 bw flat at 0.82-0.85)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Fig. 8(b,c) - all-miss Gather-Full vs index "
                     "order", opt);

    const MatrixResult result = allMissMatrix().run(opt);
    formatAllMissTable(result);
    maybeWriteJson(result, "fig08bc", opt);
    return result.failures() == 0 ? 0 : 1;
}
