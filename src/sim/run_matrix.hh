/**
 * @file
 * Declarative experiment matrix: a named set of workloads crossed with
 * a tagged set of system configurations. Benches declare their grid
 * (plus an optional sparse limit per workload) and a formatter over
 * the finished MatrixResult instead of open-coding nested loops; the
 * cells execute on the parallel runner and land in declaration order.
 *
 * Fig. 9/10/11 share one grid definition (RunMatrix::paperMain()), so
 * the three benches print views of the same 24 cells. Each bench
 * simulates every cell it prints.
 */

#ifndef DX_SIM_RUN_MATRIX_HH
#define DX_SIM_RUN_MATRIX_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace dx::sim
{

/** A row of the matrix: a named workload factory. */
using WorkloadSpec = wl::WorkloadEntry;

/** A column of the matrix: a tagged system configuration. */
struct ConfigSpec
{
    std::string tag;
    SystemConfig cfg;
    /**
     * Multiplier on ExpOptions::scale for this column (Fig. 14
     * doubles the dataset along with the core count).
     */
    double scaleMult = 1.0;
};

/** Outcome of one (workload, config) cell: its job's result. */
using CellResult = JobResult;

class MatrixResult
{
  public:
    struct Cell
    {
        std::size_t workload; //!< index into workloads()
        std::size_t config;   //!< index into configs()
        CellResult result;
    };

    /** Cell lookup; dx_fatal if the grid has no such cell. */
    const CellResult &cell(const std::string &workload,
                           const std::string &tag) const;

    /** Cell lookup; nullptr if absent. */
    const CellResult *find(const std::string &workload,
                           const std::string &tag) const;

    /** Cells in declaration order (workload-major). */
    const std::vector<Cell> &cells() const { return cells_; }

    const std::vector<WorkloadSpec> &workloads() const
    {
        return workloads_;
    }
    const std::vector<ConfigSpec> &configs() const { return configs_; }

    std::size_t failures() const;

    /** Machine-readable dump of every cell (BENCH_*.json payload). */
    std::string toJson(const std::string &benchName,
                       const ExpOptions &opt) const;

  private:
    friend class RunMatrix;
    std::vector<WorkloadSpec> workloads_;
    std::vector<ConfigSpec> configs_;
    std::vector<Cell> cells_;
};

class RunMatrix
{
  public:
    explicit RunMatrix(std::string name);

    RunMatrix &add(WorkloadSpec spec);
    RunMatrix &addWorkloads(const std::vector<wl::WorkloadEntry> &es);
    RunMatrix &addConfig(std::string tag, const SystemConfig &cfg,
                         double scaleMult = 1.0);

    /**
     * Restrict @p workload to the given config tags (sparse grid).
     * Workloads without a limit run under every config.
     */
    RunMatrix &limit(const std::string &workload,
                     std::vector<std::string> tags);

    const std::string &name() const { return name_; }
    const std::vector<WorkloadSpec> &workloads() const
    {
        return workloads_;
    }
    const std::vector<ConfigSpec> &configs() const { return configs_; }

    /**
     * Execute every (workload, config) cell on opt.effectiveJobs()
     * workers. A failed cell is reported (tag + error) and the rest
     * of the matrix continues.
     */
    MatrixResult run(const ExpOptions &opt) const;

    /** The Fig. 9/10/11 grid: 12 paper workloads x baseline/dx100. */
    static RunMatrix paperMain();

  private:
    bool cellEnabled(const WorkloadSpec &w, const ConfigSpec &c) const;

    std::string name_;
    std::vector<WorkloadSpec> workloads_;
    std::vector<ConfigSpec> configs_;
    std::map<std::string, std::set<std::string>> limits_;
};

/** Write result.toJson to BENCH_<benchName>.json when opt.json. */
void maybeWriteJson(const MatrixResult &result,
                    const std::string &benchName,
                    const ExpOptions &opt);

} // namespace dx::sim

#endif // DX_SIM_RUN_MATRIX_HH
