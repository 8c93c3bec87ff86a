/**
 * @file
 * Experiment-layer tests: the schema-driven RunStats visitors and JSON
 * emitter (every field in DX_RUN_STATS_SCHEMA must appear), option
 * parsing, and the declarative run matrix — including deterministic
 * parallel-vs-serial equality and failure isolation on the jthread
 * pool.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_matrix.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

namespace
{

ExpOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static char prog[] = "bench";
    argv.push_back(prog);
    for (auto &a : args)
        argv.push_back(a.data());
    return ExpOptions::parse(static_cast<int>(argv.size()),
                             argv.data());
}

/** Distinct non-trivial value in every schema field. */
RunStats
populatedStats()
{
    RunStats s;
    double v = 1.25;
#define DX_TEST_SET(name, type) \
    s.name = static_cast<type>(v); \
    v = v * 2.0 + 0.1875;
    DX_RUN_STATS_SCHEMA(DX_TEST_SET)
#undef DX_TEST_SET
    return s;
}

/** Tiny gather whose verify() always reports failure. */
class FailingWorkload : public Workload
{
  public:
    FailingWorkload() : inner_(GatherMicro::Mode::kFull, 1024) {}

    std::string name() const override { return "failing"; }
    void init(sim::System &sys) override { inner_.init(sys); }

    std::unique_ptr<cpu::Kernel>
    makeKernel(sim::System &sys, unsigned core, bool dx100) override
    {
        return inner_.makeKernel(sys, core, dx100);
    }

    bool verify(sim::System &) override { return false; }

  private:
    GatherMicro inner_;
};

WorkloadSpec
tinyGather(const std::string &name, std::size_t n)
{
    return {name, "micro",
            [n](Scale) -> std::unique_ptr<Workload> {
                return std::make_unique<GatherMicro>(
                    GatherMicro::Mode::kFull, n);
            }};
}

RunMatrix
tinyMatrix()
{
    RunMatrix m("tiny");
    m.add(tinyGather("G1", 1024));
    m.add(tinyGather("G2", 2048));
    m.addConfig("baseline", SystemConfig::baseline(1));
    m.addConfig("dx100", SystemConfig::withDx100(1));
    return m;
}

} // namespace

// ---------------------------------------------------------------------
// Stats schema
// ---------------------------------------------------------------------

TEST(StatsSchema, FieldCountMatchesVisitor)
{
    std::size_t visited = 0;
    RunStats{}.forEachField([&](const char *, auto) { ++visited; });
    EXPECT_EQ(visited, RunStats::fieldCount());
}

TEST(StatsSchema, SetFieldRejectsUnknownNames)
{
    RunStats s;
    EXPECT_TRUE(s.setField("cycles", 7));
    EXPECT_EQ(s.cycles, 7u);
    EXPECT_FALSE(s.setField("notAStat", 7));
}

TEST(StatsSchema, JsonEmitsEveryField)
{
    const RunStats s = populatedStats();
    const std::string json = statsToJson(s);
    s.forEachField([&](const char *name, auto) {
        EXPECT_NE(json.find("\"" + std::string(name) + "\":"),
                  std::string::npos)
            << "missing field " << name;
    });
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(StatsSchema, ToStringNamesEveryField)
{
    const std::string text = populatedStats().toString();
    RunStats{}.forEachField([&](const char *name, auto) {
        EXPECT_NE(text.find(std::string(name) + "="),
                  std::string::npos);
    });
}

// ---------------------------------------------------------------------
// Option parsing
// ---------------------------------------------------------------------

TEST(ExpOptionsParse, AcceptsAllSupportedOptions)
{
    const ExpOptions opt =
        parseArgs({"--scale=0.75", "--jobs=3", "--json"});
    EXPECT_DOUBLE_EQ(opt.scale, 0.75);
    EXPECT_EQ(opt.jobs, 3u);
    EXPECT_EQ(opt.effectiveJobs(), 3u);
    EXPECT_TRUE(opt.json);
}

TEST(ExpOptionsParse, NamedScales)
{
    EXPECT_DOUBLE_EQ(parseArgs({"--scale=small"}).scale, 0.25);
    EXPECT_DOUBLE_EQ(parseArgs({"--scale=paper"}).scale, 1.0);
}

TEST(ExpOptionsParse, DefaultsAreSane)
{
    const ExpOptions opt = parseArgs({});
    EXPECT_DOUBLE_EQ(opt.scale, 0.5);
    EXPECT_FALSE(opt.json);
    EXPECT_EQ(opt.jobs, 0u);
    EXPECT_GE(opt.effectiveJobs(), 1u);
}

TEST(ExpOptionsParse, MalformedValuesAreFatalNotExceptions)
{
    // In bench binaries dx_fatal exits with a usage hint; under
    // ScopedFatalThrow it surfaces as FatalError, proving std::stod's
    // exception can no longer escape unhandled.
    ScopedFatalThrow guard;
    EXPECT_THROW(parseArgs({"--scale=abc"}), FatalError);
    EXPECT_THROW(parseArgs({"--scale="}), FatalError);
    EXPECT_THROW(parseArgs({"--scale=1.5x"}), FatalError);
    EXPECT_THROW(parseArgs({"--scale=-2"}), FatalError);
    EXPECT_THROW(parseArgs({"--scale=0"}), FatalError);
    EXPECT_THROW(parseArgs({"--scale=nan"}), FatalError);
    EXPECT_THROW(parseArgs({"--scale=inf"}), FatalError);
    EXPECT_THROW(parseArgs({"--scale=1e400"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs=0"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs=lots"}), FatalError);
    EXPECT_THROW(parseArgs({"--jobs="}), FatalError);
    EXPECT_THROW(parseArgs({"--frobnicate"}), FatalError);
    // The removed stats-cache options fail loudly, so an old script
    // that still passes them stops instead of being silently obeyed.
    EXPECT_THROW(parseArgs({"--no-cache"}), FatalError);
    EXPECT_THROW(parseArgs({"--cache-dir=x"}), FatalError);
}

// ---------------------------------------------------------------------
// Parallel runner
// ---------------------------------------------------------------------

TEST(ParallelRunner, ResultsLandInDeclarationOrder)
{
    std::vector<Job> jobs;
    for (int i = 0; i < 16; ++i) {
        jobs.push_back({"job" + std::to_string(i), [i]() {
                            RunStats s;
                            s.cycles = static_cast<Cycle>(i);
                            return s;
                        }});
    }
    const auto results = ParallelRunner(4).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(results[i].ok);
        EXPECT_EQ(results[i].stats.cycles, static_cast<Cycle>(i));
    }
}

TEST(ParallelRunner, IsolatesFatalAndExceptionFailures)
{
    std::vector<Job> jobs;
    jobs.push_back({"ok", []() { return RunStats{}; }});
    jobs.push_back({"fatal", []() -> RunStats {
                        dx_fatal("deliberate fatal");
                    }});
    jobs.push_back({"throws", []() -> RunStats {
                        throw std::runtime_error("deliberate throw");
                    }});
    jobs.push_back({"ok2", []() { return RunStats{}; }});

    const auto results = ParallelRunner(2).run(jobs);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("deliberate fatal"),
              std::string::npos);
    EXPECT_FALSE(results[2].ok);
    EXPECT_NE(results[2].error.find("deliberate throw"),
              std::string::npos);
    EXPECT_TRUE(results[3].ok);
}

// ---------------------------------------------------------------------
// Run matrix
// ---------------------------------------------------------------------

TEST(RunMatrix, ParallelMatchesSerialBitForBit)
{
    ExpOptions opt;

    opt.jobs = 1;
    const MatrixResult serial = tinyMatrix().run(opt);
    opt.jobs = 8;
    const MatrixResult parallel = tinyMatrix().run(opt);

    ASSERT_EQ(serial.cells().size(), 4u);
    ASSERT_EQ(parallel.cells().size(), serial.cells().size());
    for (std::size_t i = 0; i < serial.cells().size(); ++i) {
        const auto &s = serial.cells()[i];
        const auto &p = parallel.cells()[i];
        EXPECT_EQ(s.workload, p.workload);
        EXPECT_EQ(s.config, p.config);
        ASSERT_TRUE(s.result.ok);
        ASSERT_TRUE(p.result.ok);
        // Schema-generated exact equality: every field, no epsilon.
        EXPECT_TRUE(s.result.stats == p.result.stats);
    }
    // Every System built by the matrix was torn down again.
    EXPECT_EQ(sim::System::liveSystems(), 0u);
}

TEST(RunMatrix, FailedCellIsIsolated)
{
    ExpOptions opt;
    opt.jobs = 2;

    RunMatrix m("failure");
    m.add({"failing", "micro",
           [](Scale) -> std::unique_ptr<Workload> {
               return std::make_unique<FailingWorkload>();
           }});
    m.add(tinyGather("good", 1024));
    m.addConfig("baseline", SystemConfig::baseline(1));

    const MatrixResult r = m.run(opt);
    EXPECT_EQ(r.failures(), 1u);
    const CellResult &bad = r.cell("failing", "baseline");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("verification"), std::string::npos);
    EXPECT_TRUE(r.cell("good", "baseline").ok);
}

TEST(RunMatrix, LimitProducesSparseGrid)
{
    RunMatrix m("sparse");
    m.add(tinyGather("A", 1024));
    m.add(tinyGather("B", 1024));
    m.addConfig("c1", SystemConfig::baseline(1));
    m.addConfig("c2", SystemConfig::baseline(1));
    m.limit("A", {"c1"});

    ExpOptions opt;
    opt.jobs = 2;
    const MatrixResult r = m.run(opt);
    EXPECT_EQ(r.cells().size(), 3u); // A/c1, B/c1, B/c2
    EXPECT_NE(r.find("A", "c1"), nullptr);
    EXPECT_EQ(r.find("A", "c2"), nullptr);
    EXPECT_NE(r.find("B", "c2"), nullptr);
}

TEST(RunMatrix, JsonDumpCoversEveryCell)
{
    ExpOptions opt;
    opt.jobs = 2;
    const MatrixResult r = tinyMatrix().run(opt);
    const std::string json = r.toJson("tiny", opt);
    EXPECT_NE(json.find("\"bench\": \"tiny\""), std::string::npos);
    for (const auto &w : r.workloads())
        EXPECT_NE(json.find("\"workload\": \"" + w.name + "\""),
                  std::string::npos);
    EXPECT_NE(json.find("\"config\": \"dx100\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
}
