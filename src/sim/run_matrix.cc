#include "sim/run_matrix.hh"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace dx::sim
{

// ---------------------------------------------------------------------
// MatrixResult
// ---------------------------------------------------------------------

const CellResult *
MatrixResult::find(const std::string &workload,
                   const std::string &tag) const
{
    for (const auto &c : cells_) {
        if (workloads_[c.workload].name == workload &&
            configs_[c.config].tag == tag) {
            return &c.result;
        }
    }
    return nullptr;
}

const CellResult &
MatrixResult::cell(const std::string &workload,
                   const std::string &tag) const
{
    const CellResult *r = find(workload, tag);
    if (!r)
        dx_fatal("run matrix has no cell (", workload, ", ", tag, ")");
    return *r;
}

std::size_t
MatrixResult::failures() const
{
    std::size_t n = 0;
    for (const auto &c : cells_) {
        if (!c.result.ok)
            ++n;
    }
    return n;
}

std::string
MatrixResult::toJson(const std::string &benchName,
                     const ExpOptions &opt) const
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\n"
       << "  \"bench\": \"" << benchName << "\",\n"
       << "  \"scale\": " << opt.scale << ",\n"
       << "  \"cells\": [\n";
    bool first = true;
    for (const auto &c : cells_) {
        const auto &w = workloads_[c.workload];
        const auto &cfg = configs_[c.config];
        os << (first ? "" : ",\n");
        first = false;
        os << "    {\"workload\": \"" << w.name << "\", \"suite\": \""
           << w.suite << "\", \"config\": \"" << cfg.tag
           << "\", \"scaleMult\": " << cfg.scaleMult
           << ", \"ok\": " << (c.result.ok ? "true" : "false");
        if (c.result.ok)
            os << ", \"stats\": " << statsToJson(c.result.stats);
        else
            os << ", \"error\": \"" << c.result.error << "\"";
        os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

// ---------------------------------------------------------------------
// RunMatrix
// ---------------------------------------------------------------------

RunMatrix::RunMatrix(std::string name) : name_(std::move(name)) {}

RunMatrix &
RunMatrix::add(WorkloadSpec spec)
{
    workloads_.push_back(std::move(spec));
    return *this;
}

RunMatrix &
RunMatrix::addWorkloads(const std::vector<wl::WorkloadEntry> &es)
{
    for (const auto &e : es)
        add(e);
    return *this;
}

RunMatrix &
RunMatrix::addConfig(std::string tag, const SystemConfig &cfg,
                     double scaleMult)
{
    // Fail the whole bench up front on a bad configuration, before
    // any job starts: one actionable message beats N worker deaths.
    cfg.validate();
    configs_.push_back({std::move(tag), cfg, scaleMult});
    return *this;
}

RunMatrix &
RunMatrix::limit(const std::string &workload,
                 std::vector<std::string> tags)
{
    auto &set = limits_[workload];
    for (auto &t : tags)
        set.insert(std::move(t));
    return *this;
}

bool
RunMatrix::cellEnabled(const WorkloadSpec &w, const ConfigSpec &c) const
{
    const auto it = limits_.find(w.name);
    return it == limits_.end() || it->second.count(c.tag) > 0;
}

MatrixResult
RunMatrix::run(const ExpOptions &opt) const
{
    MatrixResult res;
    res.workloads_ = workloads_;
    res.configs_ = configs_;

    // Enumerate enabled cells in declaration order (workload-major).
    struct Pending
    {
        std::size_t w, c;
    };
    std::vector<Pending> pending;
    for (std::size_t wi = 0; wi < workloads_.size(); ++wi) {
        for (std::size_t ci = 0; ci < configs_.size(); ++ci) {
            if (cellEnabled(workloads_[wi], configs_[ci]))
                pending.push_back({wi, ci});
        }
    }

    std::vector<Job> jobs;
    jobs.reserve(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
        const WorkloadSpec &w = workloads_[pending[i].w];
        const ConfigSpec &c = configs_[pending[i].c];
        const double effScale = opt.scale * c.scaleMult;
        jobs.push_back({w.name + "/" + c.tag, [&w, &c, effScale] {
                            dx_inform("run ...");
                            auto workload = w.make(wl::Scale{effScale});
                            return runWorkloadOnce(*workload, c.cfg);
                        }});
    }

    ParallelRunner runner(opt.effectiveJobs());
    const std::vector<JobResult> out = runner.run(jobs);

    for (std::size_t i = 0; i < pending.size(); ++i) {
        MatrixResult::Cell cell;
        cell.workload = pending[i].w;
        cell.config = pending[i].c;
        cell.result = out[i];
        if (!out[i].ok) {
            dx_warn("cell ", jobs[i].label,
                    " failed: ", out[i].error,
                    " (continuing with the rest of the matrix)");
        }
        res.cells_.push_back(std::move(cell));
    }
    return res;
}

RunMatrix
RunMatrix::paperMain()
{
    RunMatrix m("paper_main");
    m.addWorkloads(wl::paperWorkloads());
    m.addConfig("baseline", SystemConfig::baseline());
    m.addConfig("dx100", SystemConfig::withDx100());
    return m;
}

void
maybeWriteJson(const MatrixResult &result, const std::string &benchName,
               const ExpOptions &opt)
{
    if (!opt.json)
        return;
    const std::string file = "BENCH_" + benchName + ".json";
    std::ofstream out(file);
    if (!out) {
        dx_warn("cannot write ", file);
        return;
    }
    out << result.toJson(benchName, opt);
    dx_inform("wrote ", file);
}

} // namespace dx::sim
