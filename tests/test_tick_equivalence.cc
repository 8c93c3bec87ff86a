/**
 * @file
 * Differential bit-equality harness for the quiescence-aware
 * scheduler (see DESIGN.md "Tick scheduler contract").
 *
 * Every paper workload, at reduced scale, runs on the baseline, the
 * DX100 and the DMP systems under both TickPolicy::kNaive (the
 * reference loop) and TickPolicy::kQuiescent (skip + fast-forward).
 * The resulting RunStats must be equal field by field — zero
 * tolerance, doubles included: the scheduler replaces provably no-op
 * ticks with closed-form skipCycles() calls, so it must compute the
 * *same* arithmetic, not merely a close approximation.
 *
 * The field walk goes through DX_RUN_STATS_SCHEMA, so a stat added to
 * the schema is automatically covered here. RunStats omit the
 * per-component stall counters that skipCycles() books in closed form,
 * so the whole StatRegistry tree must match as well.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

namespace
{

constexpr double kTestScale = 0.02;

/** One finished run: its RunStats and its whole stat tree as JSON. */
struct RunResult
{
    RunStats stats;
    std::string tree;
};

RunResult
runWith(const WorkloadEntry &entry, SystemConfig cfg,
        TickPolicy policy)
{
    cfg.tickPolicy = policy;
    auto w = entry.make(Scale{kTestScale});
    System sys(cfg);
    w->init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        kernels.push_back(
            w->makeKernel(sys, c, cfg.dx100Instances > 0));
        sys.setKernel(c, kernels.back().get());
    }
    const RunStats stats = sys.run();
    EXPECT_TRUE(w->verify(sys))
        << entry.name << " produced wrong results under "
        << (sys.naiveTick() ? "naive" : "quiescent") << " ticking";
    return {stats, sys.statRegistry().toJson()};
}

/**
 * Field-by-field exact comparison via the schema visitor. EXPECT_EQ
 * on each field (rather than one operator== check) so a divergence
 * names the offending stat in the failure message.
 */
void
expectStatsIdentical(const RunResult &naiveRun, const RunResult &schedRun,
                     const std::string &label)
{
    const RunStats &naive = naiveRun.stats;
    const RunStats &sched = schedRun.stats;
    std::vector<double> a, b;
    std::vector<const char *> names;
    naive.forEachField([&](const char *name, auto v) {
        names.push_back(name);
        a.push_back(static_cast<double>(v));
    });
    sched.forEachField(
        [&](const char *, auto v) { b.push_back(static_cast<double>(v)); });
    ASSERT_EQ(a.size(), RunStats::fieldCount());
    ASSERT_EQ(b.size(), RunStats::fieldCount());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i])
            << label << ": field '" << names[i]
            << "' diverges between naive and quiescent scheduling";
    }
    EXPECT_TRUE(naive == sched) << label;
    EXPECT_EQ(naiveRun.tree, schedRun.tree)
        << label << ": stat trees diverge between naive and quiescent"
        << " scheduling";
}

void
checkEquivalence(const WorkloadEntry &entry, const SystemConfig &cfg,
                 const std::string &tag)
{
    const RunResult naive = runWith(entry, cfg, TickPolicy::kNaive);
    const RunResult sched = runWith(entry, cfg, TickPolicy::kQuiescent);
    expectStatsIdentical(naive, sched, entry.name + "/" + tag);
}

class TickEquivalenceTest
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

} // namespace

TEST_P(TickEquivalenceTest, Baseline)
{
    checkEquivalence(*GetParam(), SystemConfig::baseline(),
                     "baseline");
}

TEST_P(TickEquivalenceTest, Dx100)
{
    checkEquivalence(*GetParam(), SystemConfig::withDx100(), "dx100");
}

TEST_P(TickEquivalenceTest, Dmp)
{
    checkEquivalence(*GetParam(), SystemConfig::withDmp(), "dmp");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TickEquivalenceTest,
                         ::testing::ValuesIn(allEntries()),
                         entryName);

// ---------------------------------------------------------------------
// The all-miss microbench (Fig. 8b/c) is the scheduler's hardest case:
// long DRAM-bound stretches with deep queues in every component. Cover
// the extreme row-buffer-hit points explicitly at a reduced size.
// ---------------------------------------------------------------------

namespace
{

RunResult
runGather(const DramPatternParams &pat, std::size_t words,
          SystemConfig cfg, TickPolicy policy,
          Cycle maxCycles = Cycle{4} << 30)
{
    cfg.tickPolicy = policy;
    GatherMicro w(GatherMicro::Mode::kFull, words, pat);
    System sys(cfg);
    w.init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        kernels.push_back(
            w.makeKernel(sys, c, cfg.dx100Instances > 0));
        sys.setKernel(c, kernels.back().get());
    }
    ScopedFatalThrow fatalThrows;
    RunStats stats;
    EXPECT_NO_THROW(stats = sys.run(maxCycles))
        << (policy == TickPolicy::kNaive ? "naive" : "quiescent")
        << " run did not finish within " << maxCycles << " cycles";
    EXPECT_TRUE(w.verify(sys));
    return {stats, sys.statRegistry().toJson()};
}

} // namespace

TEST(TickEquivalenceMicro, AllMissGather)
{
    for (const bool dx : {false, true}) {
        for (const unsigned rbh : {0u, 100u}) {
            const SystemConfig cfg = dx ? SystemConfig::withDx100()
                                        : SystemConfig::baseline();
            DramPatternParams pat;
            pat.rbhPercent = rbh;
            const RunResult naive =
                runGather(pat, 8 * 1024, cfg, TickPolicy::kNaive);
            const RunResult sched =
                runGather(pat, 8 * 1024, cfg, TickPolicy::kQuiescent);
            expectStatsIdentical(naive, sched,
                                 std::string(dx ? "dx100" : "baseline") +
                                     "/rbh" + std::to_string(rbh));
        }
    }
}

// The Indirect unit must not sleep on the tick its fill first hits a
// full Row Table slice: the request stage ran earlier in that tick,
// before the stall, and so did not drain. With nothing in flight no
// response would wake it. RBH0 over 128 rows per bank fills slices at
// 12K words; the naive loop needs about 107K cycles.
TEST(TickEquivalenceMicro, FirstSliceFullTickDoesNotSleep)
{
    DramPatternParams pat;
    pat.rbhPercent = 0;
    pat.rowsPerBank = 128;
    const SystemConfig cfg = SystemConfig::withDx100();
    const Cycle limit = 1'000'000;
    const RunResult naive =
        runGather(pat, 12 * 1024, cfg, TickPolicy::kNaive, limit);
    const RunResult sched =
        runGather(pat, 12 * 1024, cfg, TickPolicy::kQuiescent, limit);
    expectStatsIdentical(naive, sched, "dx100/rbh0/rows128");
}

// ---------------------------------------------------------------------
// Termination regression: a run must not end with requests still in
// flight anywhere — caches, DRAM, DX100, or (the historical bug)
// prefetcher queues, which System::run's old allDone() check ignored.
// ---------------------------------------------------------------------

TEST(RunTermination, NothingInFlightAtExit)
{
    for (const TickPolicy policy :
         {TickPolicy::kNaive, TickPolicy::kQuiescent}) {
        for (const bool dmp : {false, true}) {
            SystemConfig cfg =
                dmp ? SystemConfig::withDmp() : SystemConfig::withDx100();
            cfg.tickPolicy = policy;
            GatherMicro w(GatherMicro::Mode::kFull, 4 * 1024);
            System sys(cfg);
            w.init(sys);
            std::vector<std::unique_ptr<cpu::Kernel>> kernels;
            for (unsigned c = 0; c < sys.cores(); ++c) {
                kernels.push_back(
                    w.makeKernel(sys, c, cfg.dx100Instances > 0));
                sys.setKernel(c, kernels.back().get());
            }
            (void)sys.run();
            // run() returned, so every drain condition must hold *now*
            // - not merely "cores done" as the old check had it.
            EXPECT_TRUE(sys.drained());
            EXPECT_TRUE(w.verify(sys));
        }
    }
}
