/**
 * @file
 * Property test for the quiescence contract (DESIGN.md "Tick
 * scheduler contract"): on randomized micro traces, over the preset
 * configurations and random valid ones, a component whose
 * nextEventAt() lies beyond the cycle being decided may have its tick
 * replaced by skipCycles(1) with no observable difference. Because
 * quiescence is stall-accounting (a skipped cycle still accrues the
 * stall counters the naive tick would have bumped), the property is
 * phrased as tick-vs-skip *equivalence*, not "tick is a pure no-op".
 *
 * The harness drives two identical Systems in lockstep — one with the
 * naive tick() loop, one with step() exactly as System::run uses it,
 * synced before each look — and compares full RunStats at every point
 * where the clocks align, so a violation is pinpointed to the first
 * divergent cycle and field rather than surfacing as a mismatched
 * total at the end of a run.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

constexpr Cycle kCycleCap = 1u << 20;

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

/** One of the three presets (the shapes the benches run). */
SystemConfig
presetConfig(std::mt19937 &rng)
{
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0:
        return SystemConfig::baseline();
      case 1:
        return SystemConfig::withDx100();
      default:
        return SystemConfig::withDmp();
    }
}

/**
 * A random valid configuration at the edges the presets never reach:
 * 1-8 cores, 1/2/4/8 channels, 0-2 DX100 instances (never with the
 * DMP), cache MSHR counts and input queues, DRAM read/write queues and
 * the scratchpad port queue down to one entry, and a core/controller
 * clock ratio of 1-3.
 */
SystemConfig
randomConfig(std::mt19937 &rng)
{
    const auto pick = [&rng](unsigned lo, unsigned hi) {
        return std::uniform_int_distribution<unsigned>(lo, hi)(rng);
    };
    const unsigned cores = pick(1, 8);
    const unsigned instances = std::min(pick(0, 2), cores);
    SystemConfig cfg = SystemConfig::baseline(cores);
    if (instances > 0)
        cfg = SystemConfig::withDx100(cores, instances);
    else if (pick(0, 1))
        cfg = SystemConfig::withDmp(cores);
    cfg.dram.ctrl.geom.channels = 1u << pick(0, 3);
    // Half the time a tiny structure (1-4 entries), else the default.
    const auto shrink = [&](unsigned &v) {
        if (pick(0, 1))
            v = pick(1, 4);
    };
    for (cache::Cache::Config *c : {&cfg.l1, &cfg.l2, &cfg.llc}) {
        shrink(c->mshrs);
        shrink(c->queueSize);
    }
    // The other watched ports, too: the DRAM request buffers (write
    // watermarks scaled as the controller golden test scales them) and
    // the scratchpad port.
    mem::MemoryController::Config &ctrl = cfg.dram.ctrl;
    shrink(ctrl.readQueueSize);
    const unsigned writeQueue = ctrl.writeQueueSize;
    shrink(ctrl.writeQueueSize);
    if (ctrl.writeQueueSize != writeQueue) {
        ctrl.writeHiWatermark = std::max(1u, ctrl.writeQueueSize * 3 / 4);
        ctrl.writeLoWatermark = ctrl.writeQueueSize / 4;
    }
    shrink(cfg.dx.spdPortQueue);
    // Drawn last, so the draws above give each seed its old config.
    cfg.dram.clockRatio = pick(1, 3);
    cfg.validate();
    return cfg;
}

Rig
makeRig(unsigned seed, TickPolicy policy, bool randomized)
{
    // Same seed => same workload/config on both sides of the pair.
    std::mt19937 rng(seed);
    Rig r;
    r.workload = makeWorkload(rng);
    SystemConfig cfg = randomized ? randomConfig(rng) : presetConfig(rng);
    cfg.tickPolicy = policy;
    r.sys = std::make_unique<System>(cfg);
    r.workload->init(*r.sys);
    const bool dx = r.sys->config().dx100Instances > 0;
    for (unsigned c = 0; c < r.sys->cores(); ++c) {
        r.kernels.push_back(r.workload->makeKernel(*r.sys, c, dx));
        r.sys->setKernel(c, r.kernels.back().get());
    }
    return r;
}

std::string
configString(const SystemConfig &c)
{
    std::ostringstream os;
    os << "cores=" << c.cores << " channels=" << c.dram.ctrl.geom.channels
       << " dx100=" << c.dx100Instances << " dmp=" << c.dmp
       << " mshrs=" << c.l1.mshrs << "/" << c.l2.mshrs << "/"
       << c.llc.mshrs << " queues=" << c.l1.queueSize << "/"
       << c.l2.queueSize << "/" << c.llc.queueSize
       << " dramQueues=" << c.dram.ctrl.readQueueSize << "/"
       << c.dram.ctrl.writeQueueSize << " watermarks="
       << c.dram.ctrl.writeLoWatermark << "/"
       << c.dram.ctrl.writeHiWatermark
       << " spdPortQueue=" << c.dx.spdPortQueue
       << " clockRatio=" << c.dram.clockRatio;
    return os.str();
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
 * Advance the scheduled rig exactly as System::run does (one step to
 * the next cycle something is due), sync its clocks, then march the
 * naive rig to the same cycle and compare.
 */
void
runLockstep(unsigned seed, bool randomized)
{
    Rig naive = makeRig(seed, TickPolicy::kNaive, randomized);
    Rig sched = makeRig(seed, TickPolicy::kQuiescent, randomized);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", workload " +
                 naive.workload->name() + ", " +
                 configString(naive.sys->config()));

    while (!sched.sys->drained() && sched.sys->now() < kCycleCap) {
        sched.sys->step(kCycleCap);
        sched.sys->sync();
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
        runLockstep(seed, false);
}

// The same contract on seeded random valid configurations, so the
// closed-form skips are checked where structures are one entry deep.
TEST(QuiescenceProperty, RandomConfigLockstep)
{
    for (unsigned seed = 1000; seed < 1016; ++seed)
        runLockstep(seed, true);
}
