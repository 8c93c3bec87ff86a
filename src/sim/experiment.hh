/**
 * @file
 * Shared bench harness: experiment options, schema-driven RunStats
 * serialization (text and JSON) and a concurrency-safe on-disk stats
 * cache so the figure benches that share a run matrix (Fig. 9/10/11
 * use the same 24 simulations) do not re-simulate.
 *
 * The cache is safe against concurrent writers — within one bench
 * (parallel jobs) and across benches sharing bench_cache/ — because
 * entries are written to a temp file and atomically renamed into
 * place, and a miss is re-checked right before simulating.
 */

#ifndef DX_SIM_EXPERIMENT_HH
#define DX_SIM_EXPERIMENT_HH

#include <filesystem>
#include <optional>
#include <string>

#include "sim/system.hh"
#include "workloads/workload.hh"

namespace dx::sim
{

struct ExpOptions
{
    double scale = 0.5;      //!< workload scale factor
    bool useCache = true;    //!< reuse cached results when present
    std::string cacheDir = "bench_cache";
    unsigned jobs = 0;       //!< parallel jobs; 0 = hardware_concurrency
    bool json = false;       //!< also emit BENCH_<name>.json

    /**
     * Parse --scale=<f|small|paper> --jobs=<n> --json --no-cache
     * --cache-dir=<d>. Malformed values route through dx_fatal with a
     * usage hint instead of escaping as exceptions.
     */
    static ExpOptions parse(int argc, char **argv);

    /** Effective parallelism: jobs, or hardware_concurrency when 0. */
    unsigned effectiveJobs() const;
};

/** Serialize / parse RunStats (one "key value" pair per line). */
std::string serializeStats(const RunStats &s);
std::optional<RunStats> parseStats(const std::string &text);

/** Render RunStats as a flat JSON object, full double precision. */
std::string statsToJson(const RunStats &s);

/**
 * Cache file for a (workload, config tag, scale) cell, versioned so a
 * change in what a RunStats field means retires the old entries.
 */
std::filesystem::path cachePath(const std::string &cacheDir,
                                const std::string &workload,
                                const std::string &configTag,
                                double scale);

/** Load a cache entry; nullopt if absent, partial or corrupt. */
std::optional<RunStats> loadCachedStats(const std::filesystem::path &p);

/**
 * Store a cache entry: create the cache directory (fatal on failure),
 * write to a unique temp file and atomically rename into place so a
 * concurrent reader never observes a partial entry.
 */
void storeCachedStats(const std::filesystem::path &p, const RunStats &s);

/** Run a concrete Workload instance without caching. */
RunStats runWorkloadOnce(wl::Workload &w, const SystemConfig &cfg);

/** Geometric mean helper for "geomean" rows. */
double geomean(const std::vector<double> &values);

/**
 * Print a header naming the bench and the scale to stdout; the run
 * metadata (jobs, cache) goes to stderr so stdout stays comparable.
 */
void printBenchHeader(const std::string &title, const ExpOptions &opt);

} // namespace dx::sim

#endif // DX_SIM_EXPERIMENT_HH
