#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "common/logging.hh"

namespace dx::sim
{

namespace
{

const char kUsage[] =
    " (supported: --scale=<f|small|paper>, --jobs=<n>, --json)";

/** stod that rejects trailing garbage; nullopt on any parse failure. */
std::optional<double>
parseDouble(const std::string &v)
{
    try {
        std::size_t pos = 0;
        const double d = std::stod(v, &pos);
        if (pos != v.size())
            return std::nullopt;
        return d;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

std::optional<unsigned>
parseUnsigned(const std::string &v)
{
    try {
        std::size_t pos = 0;
        const unsigned long n = std::stoul(v, &pos);
        if (pos != v.size() || v.empty() || v[0] == '-' ||
            n > std::numeric_limits<unsigned>::max()) {
            return std::nullopt;
        }
        return static_cast<unsigned>(n);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

} // namespace

ExpOptions
ExpOptions::parse(int argc, char **argv)
{
    ExpOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            const std::string v = arg.substr(8);
            if (v == "small") {
                opt.scale = 0.25;
            } else if (v == "paper") {
                opt.scale = 1.0;
            } else {
                const auto d = parseDouble(v);
                if (!d || !std::isfinite(*d) || *d <= 0.0) {
                    dx_fatal("bad --scale value '", v,
                             "': expected a positive finite number, "
                             "'small' or 'paper'", kUsage);
                }
                opt.scale = *d;
            }
        } else if (arg.rfind("--jobs=", 0) == 0) {
            const std::string v = arg.substr(7);
            const auto n = parseUnsigned(v);
            if (!n || *n == 0) {
                dx_fatal("bad --jobs value '", v,
                         "': expected a positive integer", kUsage);
            }
            opt.jobs = *n;
        } else if (arg == "--json") {
            opt.json = true;
        } else {
            dx_fatal("unknown bench option: ", arg, kUsage);
        }
    }
    return opt;
}

unsigned
ExpOptions::effectiveJobs() const
{
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::string
statsToJson(const RunStats &s)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{";
    bool first = true;
    s.forEachField([&](const char *name, auto value) {
        os << (first ? "" : ", ") << "\"" << name << "\": " << +value;
        first = false;
    });
    os << "}";
    return os.str();
}

namespace
{

/**
 * DX_STATS_JSON=<path>: after a run finishes, dump the hierarchical
 * per-component registry as nested JSON. Concurrent jobs write through
 * unique temp files and atomic renames (the last completed run wins),
 * so this works unchanged under --jobs=N.
 */
void
maybeDumpStatsJson(const System &sys)
{
    const char *path = std::getenv("DX_STATS_JSON");
    if (path && path[0] != '\0')
        sys.statRegistry().writeJsonFile(path);
}

} // namespace

RunStats
runWorkloadOnce(wl::Workload &w, const SystemConfig &cfg)
{
    System sys(cfg);
    w.init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        kernels.push_back(
            w.makeKernel(sys, c, cfg.dx100Instances > 0));
        sys.setKernel(c, kernels.back().get());
    }
    const RunStats stats = sys.run();
    if (!w.verify(sys))
        dx_fatal("workload ", w.name(), " failed verification");
    maybeDumpStatsJson(sys);
    return stats;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
printBenchHeader(const std::string &title, const ExpOptions &opt)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("scale=%.3g\n", opt.scale);
    std::printf("==========================================================\n");
    dx_inform("jobs=", opt.effectiveJobs());
}

} // namespace dx::sim
