/**
 * @file
 * Shared bench harness: experiment options, the schema-driven RunStats
 * JSON emitter and the single-run helper. Every number a bench prints
 * is simulated by the process that prints it; nothing is stored
 * between runs.
 */

#ifndef DX_SIM_EXPERIMENT_HH
#define DX_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/system.hh"
#include "workloads/workload.hh"

namespace dx::sim
{

struct ExpOptions
{
    double scale = 0.5;      //!< workload scale factor
    unsigned jobs = 0;       //!< parallel jobs; 0 = hardware_concurrency
    bool json = false;       //!< also emit BENCH_<name>.json

    /**
     * Parse --scale=<f|small|paper> --jobs=<n> --json. Malformed
     * values and unknown options route through dx_fatal with a usage
     * hint instead of escaping as exceptions.
     */
    static ExpOptions parse(int argc, char **argv);

    /** Effective parallelism: jobs, or hardware_concurrency when 0. */
    unsigned effectiveJobs() const;
};

/** Render RunStats as a flat JSON object, full double precision. */
std::string statsToJson(const RunStats &s);

/** Build, run and verify one Workload instance on @p cfg. */
RunStats runWorkloadOnce(wl::Workload &w, const SystemConfig &cfg);

/** Geometric mean helper for "geomean" rows. */
double geomean(const std::vector<double> &values);

/**
 * Print a header naming the bench and the scale to stdout; the job
 * count goes to stderr so stdout stays comparable across --jobs.
 */
void printBenchHeader(const std::string &title, const ExpOptions &opt);

} // namespace dx::sim

#endif // DX_SIM_EXPERIMENT_HH
