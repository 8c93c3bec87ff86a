/**
 * @file
 * Property test for the quiescence contract (DESIGN.md "Tick
 * scheduler contract"): on randomized micro traces, a component that
 * reports quiescent() may have its tick replaced by skipCycles(1)
 * with no observable difference. Because quiescence is
 * stall-accounting (a skipped cycle still accrues the stall counters
 * the naive tick would have bumped), the property is phrased as
 * tick-vs-skip *equivalence*, not "tick is a pure no-op".
 *
 * The harness drives two identical Systems in lockstep — one with the
 * naive tick() loop, one with tickScheduled()/skipTo() exactly as
 * System::run uses them — and compares full RunStats at every point
 * where the clocks align, so a violation is pinpointed to the first
 * divergent cycle and field rather than surfacing as a mismatched
 * total at the end of a run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

namespace
{

constexpr Cycle kCycleCap = 4u << 20;

/** One prepared System: workload + kernels installed, ready to tick. */
struct Rig
{
    std::unique_ptr<Workload> workload;
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
};

std::unique_ptr<Workload>
makeWorkload(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<std::size_t> sizeDist(256, 4096);
    const std::size_t n = sizeDist(rng);
    switch (kind(rng)) {
      case 0: {
        // Controlled-DRAM-pattern gather: the scheduler's hardest
        // case (deep queues, long admission-blocked stretches). The
        // pattern generator spreads indices across every bank, so the
        // element count must divide evenly across them.
        DramPatternParams pat;
        pat.rbhPercent =
            std::uniform_int_distribution<unsigned>(0, 100)(rng);
        pat.channelInterleave = rng() & 1;
        pat.bankGroupInterleave = rng() & 1;
        const std::size_t banked =
            1024 * std::uniform_int_distribution<std::size_t>(1, 4)(rng);
        return std::make_unique<GatherMicro>(GatherMicro::Mode::kFull,
                                             banked, pat);
      }
      case 1:
        return std::make_unique<GatherMicro>(
            rng() & 1 ? GatherMicro::Mode::kSpd
                      : GatherMicro::Mode::kFull,
            n);
      case 2:
        return std::make_unique<RmwMicro>(n, rng() & 1);
      default:
        return std::make_unique<ScatterMicro>(n, rng() & 1);
    }
}

SystemConfig
makeConfig(std::mt19937 &rng, TickPolicy policy)
{
    SystemConfig cfg;
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0:
        cfg = SystemConfig::baseline();
        break;
      case 1:
        cfg = SystemConfig::withDx100();
        break;
      default:
        cfg = SystemConfig::withDmp();
        break;
    }
    cfg.tickPolicy = policy;
    return cfg;
}

Rig
makeRig(unsigned seed, TickPolicy policy)
{
    // Same seed => same workload/config on both sides of the pair.
    std::mt19937 rng(seed);
    Rig r;
    r.workload = makeWorkload(rng);
    r.sys = std::make_unique<System>(makeConfig(rng, policy));
    r.workload->init(*r.sys);
    const bool dx = r.sys->config().dx100Instances > 0;
    for (unsigned c = 0; c < r.sys->cores(); ++c) {
        r.kernels.push_back(r.workload->makeKernel(*r.sys, c, dx));
        r.sys->setKernel(c, r.kernels.back().get());
    }
    return r;
}

std::string
diffStats(const RunStats &naive, const RunStats &sched)
{
    std::ostringstream os;
    std::vector<double> b;
    sched.forEachField(
        [&](const char *, auto v) { b.push_back(static_cast<double>(v)); });
    std::size_t i = 0;
    naive.forEachField([&](const char *name, auto v) {
        if (static_cast<double>(v) != b[i]) {
            os << "  " << name << ": naive=" << +v
               << " scheduled=" << b[i] << "\n";
        }
        ++i;
    });
    return os.str();
}

/**
 * Advance the scheduled rig exactly as System::run does (one
 * tickScheduled, then a fused fast-forward when every component
 * skipped), then march the naive rig to the same cycle and compare.
 */
void
runLockstep(unsigned seed)
{
    Rig naive = makeRig(seed, TickPolicy::kNaive);
    Rig sched = makeRig(seed, TickPolicy::kQuiescent);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", workload " +
                 naive.workload->name());

    while (!sched.sys->drained() && sched.sys->now() < kCycleCap) {
        const Cycle horizon = sched.sys->tickScheduled();
        if (horizon > sched.sys->now() + 1)
            sched.sys->skipTo(horizon - 1);
        while (naive.sys->now() < sched.sys->now())
            naive.sys->tick();
        const RunStats a = naive.sys->collectStats();
        const RunStats b = sched.sys->collectStats();
        if (!(a == b)) {
            FAIL() << "first divergence at cycle " << sched.sys->now()
                   << ":\n"
                   << diffStats(a, b);
        }
    }
    ASSERT_LT(sched.sys->now(), kCycleCap) << "scheduled run wedged";
    // The naive side must agree that the run is over — quiescence must
    // not terminate a run early (or late) relative to the reference.
    EXPECT_TRUE(naive.sys->drained());
    EXPECT_EQ(naive.sys->now(), sched.sys->now());
    EXPECT_TRUE(naive.workload->verify(*naive.sys));
    EXPECT_TRUE(sched.workload->verify(*sched.sys));
    // RunStats omit the per-component stall counters that skipCycles()
    // accrues in closed form, so the whole stat tree must match too.
    EXPECT_EQ(naive.sys->statRegistry().toJson(),
              sched.sys->statRegistry().toJson());
}

} // namespace

TEST(QuiescenceProperty, LockstepTickSkipEquivalence)
{
    for (unsigned seed = 1; seed <= 12; ++seed)
        runLockstep(seed);
}

// The standalone fast-forward path: quiescentHorizon() promises that
// while *all* components are quiescent nothing can act before the
// horizon, so a loop that only ever skipTo's proven-quiescent
// stretches (and naive-ticks everything else) must match the naive
// reference bit-for-bit too. This exercises quiescentHorizon()/
// skipTo() as an independent scheduling mode — tickScheduled()'s
// fused horizon shares the soundness argument but not the code path.
TEST(QuiescenceProperty, HorizonDrivenSkipMatchesNaive)
{
    for (unsigned seed = 100; seed < 104; ++seed) {
        Rig naive = makeRig(seed, TickPolicy::kNaive);
        Rig sched = makeRig(seed, TickPolicy::kQuiescent);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", workload " +
                     naive.workload->name());
        unsigned fastForwards = 0;
        bool diverged = false;
        while (!sched.sys->drained() && sched.sys->now() < kCycleCap) {
            const Cycle horizon = sched.sys->quiescentHorizon();
            if (horizon > sched.sys->now() + 1) {
                sched.sys->skipTo(horizon - 1);
                ++fastForwards;
            } else {
                sched.sys->tick();
            }
            while (naive.sys->now() < sched.sys->now())
                naive.sys->tick();
            const RunStats a = naive.sys->collectStats();
            const RunStats b = sched.sys->collectStats();
            if (!(a == b)) {
                ADD_FAILURE()
                    << "first divergence at cycle " << sched.sys->now()
                    << ":\n"
                    << diffStats(a, b);
                diverged = true;
                break;
            }
        }
        if (diverged)
            continue;
        ASSERT_LT(sched.sys->now(), kCycleCap) << "run wedged";
        EXPECT_TRUE(sched.workload->verify(*sched.sys));
        // A trace that never fast-forwards would make this test
        // vacuous for the skip path.
        EXPECT_GT(fastForwards, 0u) << "trace never fast-forwarded";
    }
}
