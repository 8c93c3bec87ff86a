/**
 * @file
 * Ablation studies for the design choices called out in DESIGN.md §4,
 * run on the all-miss Gather-Full microbenchmark (worst-case index
 * order, where every mechanism matters):
 *
 *   1. DRAM address-interleaving order (channel/bank-group placement);
 *   2. memory-controller request-buffer depth (the visibility window
 *      the paper argues is too small, §2.1);
 *   3. DX100 Row Table fill rate;
 *   4. Row Table capacity (rows per slice).
 *
 * All sections share one declarative matrix over the single worst-case
 * workload, so the whole sweep parallelizes across --jobs workers.
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
const char kWorkload[] = "allmiss_worst";

const std::vector<mem::MapOrder> kOrders = {
    mem::MapOrder::kChBgCoBaRo, mem::MapOrder::kChCoBgBaRo,
    mem::MapOrder::kCoChBgBaRo};
const std::vector<unsigned> kQueueDepths = {8, 16, 32, 64, 128};
const std::vector<unsigned> kFillRates = {2, 4, 8, 16, 32};
const std::vector<unsigned> kRowsPerSlice = {8, 16, 32, 64, 128};

DramPatternParams
worstPattern()
{
    DramPatternParams p;
    p.rbhPercent = 0;
    p.channelInterleave = false;
    p.bankGroupInterleave = false;
    return p;
}

RunMatrix
ablationMatrix()
{
    RunMatrix m("ablation");
    m.add({kWorkload, "micro",
           [](Scale) -> std::unique_ptr<Workload> {
               return std::make_unique<GatherMicro>(
                   GatherMicro::Mode::kFull, kN, worstPattern());
           }});

    for (auto order : kOrders) {
        SystemConfig bc = SystemConfig::baseline();
        bc.dram.order = order;
        m.addConfig("base_" + mem::to_string(order), bc);
        SystemConfig dc = SystemConfig::withDx100();
        dc.dram.order = order;
        m.addConfig("dx_" + mem::to_string(order), dc);
    }

    for (unsigned q : kQueueDepths) {
        SystemConfig bc = SystemConfig::baseline();
        bc.dram.ctrl.readQueueSize = q;
        bc.dram.ctrl.writeQueueSize = q;
        bc.dram.ctrl.writeHiWatermark = 3 * q / 4;
        bc.dram.ctrl.writeLoWatermark = q / 4;
        m.addConfig("base_q" + std::to_string(q), bc);
        SystemConfig dc = SystemConfig::withDx100();
        dc.dram.ctrl = bc.dram.ctrl;
        m.addConfig("dx_q" + std::to_string(q), dc);
    }

    for (unsigned f : kFillRates) {
        SystemConfig dc = SystemConfig::withDx100();
        dc.dx.fillRate = f;
        m.addConfig("dx_fill" + std::to_string(f), dc);
    }

    for (unsigned rows : kRowsPerSlice) {
        SystemConfig dc = SystemConfig::withDx100();
        dc.dx.rowsPerSlice = rows;
        m.addConfig("dx_rows" + std::to_string(rows), dc);
    }
    return m;
}

const RunStats &
statsOf(const MatrixResult &r, const std::string &tag)
{
    const CellResult &c = r.cell(kWorkload, tag);
    if (!c.ok)
        dx_fatal("ablation cell ", tag, " failed: ", c.error);
    return c.stats;
}

void
formatAblationTables(const MatrixResult &r)
{
    std::printf("--- address interleaving order ---\n");
    std::printf("%-14s %12s %12s %9s %7s\n", "order", "base", "dx100",
                "speedup", "dx bw");
    for (auto order : kOrders) {
        const std::string name = mem::to_string(order);
        const RunStats &b = statsOf(r, "base_" + name);
        const RunStats &d = statsOf(r, "dx_" + name);
        std::printf("%-14s %12llu %12llu %8.2fx %6.1f%%\n",
                    name.c_str(),
                    static_cast<unsigned long long>(b.cycles),
                    static_cast<unsigned long long>(d.cycles),
                    static_cast<double>(b.cycles) / d.cycles,
                    d.bandwidthUtil * 100);
    }

    std::printf("\n--- request buffer depth (baseline visibility) ---\n");
    std::printf("%-14s %12s %12s %9s\n", "entries", "base", "dx100",
                "speedup");
    for (unsigned q : kQueueDepths) {
        const RunStats &b = statsOf(r, "base_q" + std::to_string(q));
        const RunStats &d = statsOf(r, "dx_q" + std::to_string(q));
        std::printf("%-14u %12llu %12llu %8.2fx\n", q,
                    static_cast<unsigned long long>(b.cycles),
                    static_cast<unsigned long long>(d.cycles),
                    static_cast<double>(b.cycles) / d.cycles);
    }

    std::printf("\n--- DX100 fill rate (indices/cycle) ---\n");
    std::printf("%-14s %12s %7s\n", "fill rate", "dx100", "dx bw");
    for (unsigned f : kFillRates) {
        const RunStats &d = statsOf(r, "dx_fill" + std::to_string(f));
        std::printf("%-14u %12llu %6.1f%%\n", f,
                    static_cast<unsigned long long>(d.cycles),
                    d.bandwidthUtil * 100);
    }

    std::printf("\n--- Row Table rows per slice ---\n");
    std::printf("%-14s %12s %7s\n", "rows/slice", "dx100", "dx bw");
    for (unsigned rows : kRowsPerSlice) {
        const RunStats &d =
            statsOf(r, "dx_rows" + std::to_string(rows));
        std::printf("%-14u %12llu %6.1f%%\n", rows,
                    static_cast<unsigned long long>(d.cycles),
                    d.bandwidthUtil * 100);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const ExpOptions opt = ExpOptions::parse(argc, argv);
    printBenchHeader("Ablations - all-miss gather, worst index order",
                     opt);

    const MatrixResult result = ablationMatrix().run(opt);
    formatAblationTables(result);
    maybeWriteJson(result, "table_ablation", opt);
    return result.failures() == 0 ? 0 : 1;
}
