/**
 * @file
 * Sweep driver for the repository benchmark (started by run.py).
 *
 * A sweep is a fixed list of (workload, system config) cells: the grid
 * one figure bench runs. The driver repeats the sweep until the time
 * budget is spent, always finishing the sweep it is in, and prints one
 * JSON line per finished cell on stdout: the host time of each phase of
 * the cell, whether the workload's own output check passed, the flat
 * RunStats and, with --counts, per-layer simulated work summed from the
 * stat registry. run.py turns these lines into the benchmark metrics.
 *
 *   perfbench --sweep paper12|allmiss|dmp12 --seed N --seconds S
 *             [--counts]
 *
 * The seed picks the inputs: it grows the paper workloads by at most
 * one percent and shifts the all-miss row-hit targets by a few points,
 * so seeds simulate different data with about equal work.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

using Clock = std::chrono::steady_clock;

/** One (workload, config) cell of a sweep. */
struct Cell
{
    std::string name; //!< "<workload>/<config tag>"
    std::function<std::unique_ptr<wl::Workload>()> make;
    SystemConfig cfg;
};

/** Scale of the paper-workload sweeps: the CI scale of fig09/fig12. */
constexpr double kPaperScale = 0.05;

/** The 12 paper workloads crossed with @p configs (Fig. 9 / Fig. 12). */
std::vector<Cell>
paperCells(std::uint64_t seed,
           const std::vector<std::pair<std::string, SystemConfig>> &configs)
{
    const wl::Scale scale{kPaperScale * (1.0 + (seed % 11) / 1000.0)};
    std::vector<Cell> cells;
    for (const auto &e : wl::paperWorkloads()) {
        for (const auto &[tag, cfg] : configs) {
            const wl::WorkloadFactory make = e.make;
            cells.push_back(
                {e.name + "/" + tag, [make, scale] { return make(scale); },
                 cfg});
        }
    }
    return cells;
}

/** Fig. 8(b,c): all-miss Gather-Full over seven DRAM index orders. */
std::vector<Cell>
allMissCells(std::uint64_t seed)
{
    const SystemConfig base = SystemConfig::baseline();
    const SystemConfig dx = SystemConfig::withDx100();
    // 64K words as in the figure. The seed raises the partial row-hit
    // targets by a few points, which reorders the indices and leaves
    // the work about equal. Only raises on which every DX100 cell
    // completes are used: a 1- or 4-point raise (and 65440 words) makes
    // a DX100 cell run into the cycle limit. More rows per bank would
    // also vary the inputs, but grow the footprint and the host time.
    constexpr unsigned kRbhRaises[] = {0, 2, 3};
    const std::size_t words = 64 * 1024;
    const unsigned rbhRaise = kRbhRaises[seed % std::size(kRbhRaises)];

    struct Point
    {
        const char *label;
        unsigned rbh;
        bool chi, bgi;
    };
    const Point points[] = {
        {"RBH0", 0, false, false},
        {"RBH25", 25, false, false},
        {"RBH50", 50, false, false},
        {"RBH75", 75, false, false},
        {"RBH100", 100, false, false},
        {"RBH100+CHI", 100, true, false},
        {"RBH100+CHI+BGI", 100, true, true},
    };
    std::vector<Cell> cells;
    for (const Point &p : points) {
        wl::DramPatternParams pat;
        pat.rbhPercent = p.rbh < 100 ? p.rbh + rbhRaise : p.rbh;
        pat.channelInterleave = p.chi;
        pat.bankGroupInterleave = p.bgi;
        const auto make = [words, pat]() -> std::unique_ptr<wl::Workload> {
            return std::make_unique<wl::GatherMicro>(
                wl::GatherMicro::Mode::kFull, words, pat);
        };
        cells.push_back({std::string(p.label) + "/baseline", make, base});
        cells.push_back({std::string(p.label) + "/dx100", make, dx});
    }
    return cells;
}

/** A registry leaf summed over every component of one kind. */
struct CountSpec
{
    const char *metric;
    std::string_view kind; //!< component name without its instance id
    std::string_view leaf;
};

constexpr CountSpec kCounts[] = {
    {"core_ops", "core", "committedOps"},
    {"l1_misses", "l1d", "demandMisses"},
    {"l2_misses", "l2", "demandMisses"},
    {"llc_misses", "llc", "demandMisses"},
    {"dram_lines", "dram", "linesTransferred"},
    {"dram_acts", "ch", "actCommands"},
    {"dx_instructions", "dx100", "instructionsRetired"},
    {"dx_words", "rowtable", "words"},
    {"dx_columns", "rowtable", "columns"},
    {"dmp_prefetches", "dmp", "indirectPrefetches"},
};

/** True when path segment @p seg names a @p kind ("core3", "dx100_1"). */
bool
isKind(std::string_view seg, std::string_view kind)
{
    if (seg.substr(0, kind.size()) != kind)
        return false;
    std::string_view rest = seg.substr(kind.size());
    if (!rest.empty() && rest.front() == '_')
        rest.remove_prefix(1);
    return rest.find_first_not_of("0123456789") == std::string_view::npos;
}

std::string
countsJson(const StatRegistry &reg)
{
    std::uint64_t sums[std::size(kCounts)] = {};
    for (const std::string &path : reg.paths()) {
        const std::string_view p(path);
        const std::size_t leafDot = p.rfind('.');
        if (leafDot == std::string_view::npos || leafDot == 0)
            continue;
        const std::size_t kindDot = p.rfind('.', leafDot - 1);
        const std::size_t segStart =
            kindDot == std::string_view::npos ? 0 : kindDot + 1;
        const std::string_view seg = p.substr(segStart, leafDot - segStart);
        const std::string_view leaf = p.substr(leafDot + 1);
        for (std::size_t i = 0; i < std::size(kCounts); ++i) {
            if (leaf == kCounts[i].leaf && isKind(seg, kCounts[i].kind))
                sums[i] += static_cast<std::uint64_t>(reg.value(path));
        }
    }
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < std::size(kCounts); ++i)
        os << (i ? ", " : "") << "\"" << kCounts[i].metric
           << "\": " << sums[i];
    os << "}";
    return os.str();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Run one cell and print its JSON line. */
void
runCell(const Cell &cell, unsigned sweep, bool counts,
        Clock::time_point origin)
{
    std::ostringstream line;
    line << std::setprecision(17) << "{\"sweep\": " << sweep
         << ", \"cell\": \"" << cell.name << "\"";
    const auto t0 = Clock::now();
    try {
        // A failing cell is reported and the sweep goes on.
        ScopedFatalThrow fatalThrows;
        std::unique_ptr<wl::Workload> w = cell.make();
        auto sys = std::make_unique<System>(cell.cfg);
        const auto t1 = Clock::now();
        w->init(*sys);
        const auto t2 = Clock::now();
        std::vector<std::unique_ptr<cpu::Kernel>> kernels;
        for (unsigned c = 0; c < sys->cores(); ++c) {
            kernels.push_back(
                w->makeKernel(*sys, c, cell.cfg.dx100Instances > 0));
            sys->setKernel(c, kernels.back().get());
        }
        const auto t3 = Clock::now();
        const RunStats stats = sys->run();
        const auto t4 = Clock::now();
        const bool verified = w->verify(*sys);
        const auto t5 = Clock::now();
        const std::string work =
            counts ? countsJson(sys->statRegistry()) : std::string();
        const auto t6 = Clock::now();
        kernels.clear();
        sys.reset();
        w.reset();
        const auto t7 = Clock::now();

        line << ", \"ok\": " << (verified ? "true" : "false")
             << ", \"start_s\": " << secondsBetween(origin, t0)
             << ", \"build_s\": " << secondsBetween(t0, t1)
             << ", \"init_s\": " << secondsBetween(t1, t2)
             << ", \"kernels_s\": " << secondsBetween(t2, t3)
             << ", \"simulate_s\": " << secondsBetween(t3, t4)
             << ", \"verify_s\": " << secondsBetween(t4, t5)
             << ", \"teardown_s\": " << secondsBetween(t6, t7)
             << ", \"stats\": " << statsToJson(stats);
        if (counts)
            line << ", \"counts\": " << work;
    } catch (const FatalError &e) {
        line << ", \"ok\": false, \"error\": \"" << jsonEscape(e.what())
             << "\"";
    }
    line << "}\n";
    std::fputs(line.str().c_str(), stdout);
    std::fflush(stdout);
}

struct Args
{
    std::string sweep;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool counts = false;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --sweep "
                 "paper12|allmiss|dmp12 --seed N --seconds S "
                 "[--counts]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--counts") {
            a.counts = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value after " + arg);
        const std::string v = argv[++i];
        try {
            std::size_t pos = 0;
            if (arg == "--sweep") {
                a.sweep = v;
                pos = v.size();
            } else if (arg == "--seed") {
                if (v.empty() || v[0] == '-')
                    usage("bad --seed " + v);
                a.seed = std::stoull(v, &pos);
                haveSeed = true;
            } else if (arg == "--seconds") {
                a.seconds = std::stod(v, &pos);
            } else {
                usage("unknown option " + arg);
            }
            if (pos != v.size())
                usage("bad value for " + arg + ": " + v);
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + v);
        }
    }
    if (!haveSeed || !(a.seconds > 0.0))
        usage("--seed and a positive --seconds are required");
    return a;
}

std::vector<Cell>
makeSweep(const Args &a)
{
    if (a.sweep == "paper12") {
        return paperCells(a.seed, {{"baseline", SystemConfig::baseline()},
                                   {"dx100", SystemConfig::withDx100()}});
    }
    if (a.sweep == "dmp12")
        return paperCells(a.seed, {{"dmp", SystemConfig::withDmp()}});
    if (a.sweep == "allmiss")
        return allMissCells(a.seed);
    usage("unknown --sweep '" + a.sweep + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<Cell> cells = makeSweep(args);
    const auto origin = Clock::now();
    for (unsigned sweep = 0;
         sweep == 0 || secondsBetween(origin, Clock::now()) < args.seconds;
         ++sweep) {
        for (const Cell &c : cells)
            runCell(c, sweep, args.counts, origin);
    }
    return 0;
}
