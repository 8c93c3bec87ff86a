/**
 * @file
 * Golden-stats corpus: every paper workload, at reduced scale on the
 * DX100 system and on the DMP system, is pinned to a checked-in JSON
 * snapshot (<name>_dx100.json, <name>_dmp.json) produced by
 * the same statsToJson path the figure benches' --json flag uses. Any
 * behavioral change to the simulator — intended or not — shows up
 * here as a readable per-field diff instead of a silent drift in the
 * EXPERIMENTS.md tables.
 *
 * Regenerate after an intended change with tools/regen_golden.sh
 * (which reruns this binary under DX_REGEN_GOLDEN=1) and review the
 * resulting corpus diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

namespace
{

namespace fs = std::filesystem;

constexpr double kGoldenScale = 0.02;

fs::path
goldenDir()
{
    return fs::path(DX_SOURCE_DIR) / "tests" / "golden";
}

bool
regenerating()
{
    const char *env = std::getenv("DX_REGEN_GOLDEN");
    return env && env[0] == '1';
}

/**
 * Parse the flat {"field": value, ...} object statsToJson emits.
 * Values are read with strtod, which round-trips the max_digits10
 * serialization exactly, so a clean run compares bit-identical.
 */
std::optional<RunStats>
parseFlatJson(const std::string &text)
{
    RunStats s;
    std::size_t matched = 0;
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const std::size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            return std::nullopt;
        const std::string name = text.substr(pos + 1, end - pos - 1);
        const std::size_t colon = text.find(':', end);
        if (colon == std::string::npos)
            return std::nullopt;
        const double value = std::strtod(text.c_str() + colon + 1,
                                         nullptr);
        if (!s.setField(name, value))
            return std::nullopt;
        ++matched;
        pos = colon;
    }
    return matched == RunStats::fieldCount()
               ? std::optional<RunStats>(s)
               : std::nullopt;
}

std::string
fieldDiff(const RunStats &golden, const RunStats &actual)
{
    std::ostringstream os;
    os.precision(17);
    std::vector<double> b;
    actual.forEachField(
        [&](const char *, auto v) { b.push_back(static_cast<double>(v)); });
    std::size_t i = 0;
    golden.forEachField([&](const char *name, auto v) {
        const double g = static_cast<double>(v);
        if (g != b[i]) {
            os << "  " << name << ": golden=" << g
               << " actual=" << b[i];
            if (g != 0.0)
                os << "  (" << 100.0 * (b[i] - g) / g << "%)";
            os << "\n";
        }
        ++i;
    });
    return os.str();
}

class GoldenStatsTest
    : public ::testing::TestWithParam<const WorkloadEntry *>
{
};

std::vector<const WorkloadEntry *>
allEntries()
{
    std::vector<const WorkloadEntry *> out;
    for (const auto &e : paperWorkloads())
        out.push_back(&e);
    return out;
}

std::string
entryName(const ::testing::TestParamInfo<const WorkloadEntry *> &info)
{
    return info.param->name;
}

/**
 * Run @p entry on @p cfg and compare its RunStats with the corpus file
 * <name>_<suffix>.json (or rewrite that file under DX_REGEN_GOLDEN=1).
 */
void
checkCorpus(const WorkloadEntry &entry, const std::string &suffix,
            const SystemConfig &cfg)
{
    const fs::path file =
        goldenDir() / (entry.name + "_" + suffix + ".json");

    auto w = entry.make(Scale{kGoldenScale});
    const RunStats actual = runWorkloadOnce(*w, cfg);
    const std::string actualJson = statsToJson(actual);

    if (regenerating()) {
        fs::create_directories(goldenDir());
        std::ofstream out(file);
        ASSERT_TRUE(out.good()) << "cannot write " << file;
        out << actualJson << "\n";
        GTEST_SKIP() << "regenerated " << file;
    }

    std::ifstream in(file);
    ASSERT_TRUE(in.good())
        << "missing golden file " << file
        << " — run tools/regen_golden.sh to create the corpus";
    std::stringstream buf;
    buf << in.rdbuf();

    const std::optional<RunStats> golden = parseFlatJson(buf.str());
    ASSERT_TRUE(golden.has_value())
        << "unparsable golden file " << file;

    EXPECT_TRUE(*golden == actual)
        << entry.name << " (" << suffix
        << ") diverged from the golden corpus:\n"
        << fieldDiff(*golden, actual)
        << "If this change is intended, regenerate with "
           "tools/regen_golden.sh and commit the corpus diff.";
}

} // namespace

TEST_P(GoldenStatsTest, MatchesCorpus)
{
    checkCorpus(*GetParam(), "dx100", SystemConfig::withDx100());
}

// The DMP comparison system (Fig. 12): pins the prefetcher's effect on
// absolute timing, not only its agreement between the two tick loops.
TEST_P(GoldenStatsTest, MatchesDmpCorpus)
{
    checkCorpus(*GetParam(), "dmp", SystemConfig::withDmp());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenStatsTest,
                         ::testing::ValuesIn(allEntries()),
                         entryName);
