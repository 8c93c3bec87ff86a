/**
 * @file
 * Out-of-order core tests: dependency ordering, structural limits,
 * store drain, RMW serialization, memory-level parallelism, and a
 * commit-order golden under the ticking and the skipping driver.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_port.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::cpu;

namespace
{

/** Kernel built from a pre-recorded list of emitter actions. */
class ScriptKernel : public Kernel
{
  public:
    using Step = std::function<void(OpEmitter &)>;

    void add(Step s) { steps_.push_back(std::move(s)); }

    bool more() const override { return next_ < steps_.size(); }

    void
    emitChunk(OpEmitter &e) override
    {
        steps_[next_++](e);
    }

  private:
    std::vector<Step> steps_;
    std::size_t next_ = 0;
};

struct CoreRig
{
    mem::DramSystem dram;
    cache::DramPort port;
    cache::Cache llc;
    cache::Cache l2;
    cache::Cache l1;
    Core core;
    ScriptKernel kernel;

    explicit CoreRig(const Core::Config &coreCfg = {},
                     const cache::Cache::Config &l1Config = l1Cfg())
        : dram(dramCfg()), port(dram), llc(llcCfg(), &port),
          l2(l2Cfg(), &llc), l1(l1Config, &l2), core(coreCfg, 0, &l1)
    {
        llc.addChild(&l1);
        llc.addChild(&l2);
        core.setKernel(&kernel);
    }

    static mem::DramSystem::Config
    dramCfg()
    {
        mem::DramSystem::Config c;
        c.ctrl.timings.refreshEnabled = false;
        return c;
    }

    static cache::Cache::Config
    l1Cfg()
    {
        cache::Cache::Config c;
        c.name = "L1";
        c.sizeBytes = 32 * 1024;
        c.assoc = 8;
        c.latency = 4;
        c.mshrs = 16;
        return c;
    }

    static cache::Cache::Config
    l2Cfg()
    {
        cache::Cache::Config c;
        c.name = "L2";
        c.sizeBytes = 256 * 1024;
        c.assoc = 4;
        c.latency = 12;
        c.mshrs = 32;
        c.queueSize = 32;
        return c;
    }

    static cache::Cache::Config
    llcCfg()
    {
        cache::Cache::Config c;
        c.name = "LLC";
        c.sizeBytes = 10 * 1024 * 1024;
        c.assoc = 20;
        c.latency = 42;
        c.mshrs = 256;
        c.queueSize = 64;
        c.inclusiveRoot = true;
        return c;
    }

    /**
     * Run until the core reports done; returns elapsed cycles. With
     * @p skip, the core skips every cycle its nextEventAt() proves
     * quiet (the §4c contract) instead of ticking; the caches and DRAM
     * tick every cycle either way. @p onCycle runs after each cycle.
     */
    template <typename OnCycle>
    Cycle
    run(Cycle limit, bool skip, OnCycle &&onCycle)
    {
        Cycle cycles = 0;
        while (!core.drained() && cycles < limit) {
            if (skip && core.nextEventAt() > cycles + 1)
                core.skipCycles(1);
            else
                core.tick();
            l1.tick();
            l2.tick();
            llc.tick();
            dram.tick();
            ++cycles;
            onCycle(cycles);
        }
        EXPECT_TRUE(core.drained()) << "core did not finish";
        return cycles;
    }

    Cycle
    run(Cycle limit = 1'000'000)
    {
        return run(limit, false, [](Cycle) {});
    }
};

} // namespace

TEST(Core, ExecutesAluChain)
{
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) {
        SeqNum a = e.intOp();
        SeqNum b = e.intOp(1, a);
        SeqNum c = e.intOp(1, b);
        e.intOp(1, c);
    });
    rig.run();
    EXPECT_EQ(rig.core.stats().committedOps.value(), 4u);
}

TEST(Core, LongAluLatencyDoesNotWrapTheCompletionWheel)
{
    // MicroOp::latency is 8-bit: a 200-cycle op must take 200 cycles,
    // not 200 mod (wheel size).
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) { e.intOp(1, e.intOp(200)); });
    EXPECT_GE(rig.run(), 200u);
    EXPECT_EQ(rig.core.stats().committedOps.value(), 2u);
}

TEST(Core, IndependentOpsRunWiderThanChains)
{
    // 512 dependent ops vs 512 independent ops: the chain is bound by
    // latency (>= 512 cycles), the independent set by width (~64).
    CoreRig chainRig;
    chainRig.kernel.add([](OpEmitter &e) {
        SeqNum prev = e.intOp();
        for (int i = 0; i < 511; ++i)
            prev = e.intOp(1, prev);
    });
    const Cycle chain = chainRig.run();

    CoreRig wideRig;
    wideRig.kernel.add([](OpEmitter &e) {
        for (int i = 0; i < 512; ++i)
            e.intOp();
    });
    const Cycle wide = wideRig.run();

    EXPECT_GT(chain, 500u);
    EXPECT_LT(wide, 200u);
}

TEST(Core, LoadMissesOverlapForMlp)
{
    // 16 independent loads to distinct lines vs 16 dependent loads.
    CoreRig indep;
    indep.kernel.add([](OpEmitter &e) {
        for (int i = 0; i < 16; ++i)
            e.load(Addr(i) * 4096, 8, 1);
    });
    const Cycle parallelTime = indep.run();

    CoreRig chain;
    chain.kernel.add([](OpEmitter &e) {
        SeqNum prev = e.load(0, 8, 1);
        for (int i = 1; i < 16; ++i)
            prev = e.load(Addr(i) * 4096, 8, 1, 0, prev);
    });
    const Cycle serialTime = chain.run();

    // Dependent misses serialize on full memory latency.
    EXPECT_GT(static_cast<double>(serialTime) / parallelTime, 4.0);
}

TEST(Core, CommittedCountsByKind)
{
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) {
        SeqNum v = e.load(0x100, 4, 1);
        e.store(0x200, 4, 2, v);
        e.rmw(0x300, 4, 3, v);
        e.intOp(1, v);
    });
    rig.run();
    const auto &s = rig.core.stats();
    EXPECT_EQ(s.committedOps.value(), 4u);
    EXPECT_EQ(s.committedLoads.value(), 1u);
    EXPECT_EQ(s.committedStores.value(), 1u);
    EXPECT_EQ(s.committedRmws.value(), 1u);
}

TEST(Core, AtomicRmwsSerializeAgainstLoads)
{
    // A stream of independent (load, RMW) pairs: the locked RMWs issue
    // only at the ROB head with drained stores, killing MLP relative to
    // plain stores.
    auto build = [](CoreRig &rig, bool atomic) {
        for (int i = 0; i < 64; ++i) {
            rig.kernel.add([i, atomic](OpEmitter &e) {
                SeqNum v = e.load(Addr(0x100000) + Addr(i) * 4096, 4, 1);
                if (atomic)
                    e.rmw(Addr(0x800000) + Addr(i) * 4096, 4, 2, v);
                else
                    e.store(Addr(0x800000) + Addr(i) * 4096, 4, 2, v);
            });
        }
    };

    CoreRig atomicRig;
    build(atomicRig, true);
    const Cycle atomicTime = atomicRig.run();

    CoreRig plainRig;
    build(plainRig, false);
    const Cycle plainTime = plainRig.run();

    EXPECT_GT(static_cast<double>(atomicTime) / plainTime, 2.0);
}

TEST(Core, StoresDrainToMemoryAfterCommit)
{
    CoreRig rig;
    for (int i = 0; i < 8; ++i) {
        rig.kernel.add([i](OpEmitter &e) {
            e.store(Addr(i) * 4096, 8, 5);
        });
    }
    rig.run();
    // All stores reached the L1 (demand accesses there).
    EXPECT_EQ(rig.core.stats().committedStores.value(), 8u);
    EXPECT_EQ(rig.l1.stats().demandAccesses.value(), 8u);
}

TEST(Core, FenceOrdersMemoryOps)
{
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) {
        e.load(0x1000, 8, 1);
        e.fence();
        e.load(0x2000, 8, 1);
    });
    rig.run();
    EXPECT_EQ(rig.core.stats().committedOps.value(), 3u);
}

TEST(Core, RobLimitsRunahead)
{
    // A long-latency load at the head plus >224 younger ALU ops: the
    // ROB must fill and stall dispatch.
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) {
        e.load(0x123400, 8, 1);
        for (int i = 0; i < 400; ++i)
            e.intOp();
    });
    rig.run();
    EXPECT_GT(rig.core.stats().robStallCycles.value(), 0u);
}

TEST(Core, LoadQueueLimitsOutstandingLoads)
{
    // More independent long-latency loads than LQ entries: dispatch
    // must stall on the LQ, and the stall counter must say so.
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) {
        for (int i = 0; i < 200; ++i)
            e.load(Addr(0x200000) + Addr(i) * 4096, 8, 1);
    });
    rig.run();
    EXPECT_GT(rig.core.stats().lqStallCycles.value(), 0u);
}

TEST(Core, StoreQueueLimitsOutstandingStores)
{
    CoreRig rig;
    rig.kernel.add([](OpEmitter &e) {
        for (int i = 0; i < 200; ++i)
            e.store(Addr(0x400000) + Addr(i) * 4096, 8, 2);
    });
    rig.run();
    EXPECT_GT(rig.core.stats().sqStallCycles.value(), 0u);
    EXPECT_EQ(rig.core.stats().committedStores.value(), 200u);
}

TEST(Core, MmioStoresArriveInProgramOrder)
{
    // The DX100 doorbell protocol depends on per-core MMIO ordering.
    struct OrderedDevice : public MmioDevice
    {
        std::vector<std::uint64_t> seen;
        void
        mmioWrite(Addr, std::uint64_t data, int) override
        {
            seen.push_back(data);
        }
        bool mmioReady(std::uint64_t, int) override { return true; }
    } dev;

    CoreRig rig;
    rig.core.setMmioDevice(&dev);
    rig.kernel.add([](OpEmitter &e) {
        for (std::uint64_t k = 0; k < 24; ++k)
            e.mmioStore(Addr{0x1000} + (k % 3) * 8, k);
    });
    rig.run();
    ASSERT_EQ(dev.seen.size(), 24u);
    for (std::uint64_t k = 0; k < 24; ++k)
        EXPECT_EQ(dev.seen[k], k);
}

TEST(Core, WaitOpBlocksUntilDeviceReady)
{
    struct CountdownDevice : public MmioDevice
    {
        int polls = 0;
        void mmioWrite(Addr, std::uint64_t, int) override {}
        bool
        mmioReady(std::uint64_t, int) override
        {
            return ++polls >= 4;
        }
    } dev;

    CoreRig rig;
    rig.core.setMmioDevice(&dev);
    rig.kernel.add([](OpEmitter &e) { e.dxWait(1); });
    const Cycle cycles = rig.run();

    EXPECT_EQ(dev.polls, 4);
    // Three failed polls at the poll interval dominate the runtime.
    EXPECT_GE(cycles, 3 * Core::Config{}.pollInterval);
    EXPECT_GT(rig.core.stats().waitCycles.value(), 0u);
    // Spin-loop instructions were charged.
    EXPECT_GE(rig.core.stats().committedOps.value(),
              1 + 4 * Core::Config{}.pollInstrCost);
}

TEST(Core, SecondPassHitsInCache)
{
    CoreRig rig;
    for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < 32; ++i) {
            rig.kernel.add([i](OpEmitter &e) {
                e.load(Addr(i) * kLineBytes, 8, 7);
            });
        }
        if (pass == 0) {
            // Separate the passes so the second one actually re-visits
            // installed lines instead of coalescing into live MSHRs.
            rig.kernel.add([](OpEmitter &e) { e.fence(); });
        }
    }
    rig.run();
    EXPECT_GE(rig.l1.stats().demandHits.value(), 32u);
    EXPECT_LE(rig.l1.stats().demandMisses.value(), 40u);
}

// ---------------------------------------------------------------------
// Commit-order golden: seeded kernels that mix dependent loads over a
// footprint larger than the L1, int/fp ALU ops, stores, locked RMWs,
// fences, and MMIO doorbells with kDxWait spins against a countdown
// device, each run on the default core and on a tight one (small
// ROB/LQ/SQ, one load port, a 2-entry L1 queue) so ROB, LQ and SQ
// stalls and L1 refusals all occur. Every cycle at which committedOps
// changes and every final Core::Stats field are compared against
// tests/golden/core_order.txt. Each case runs twice: ticking the core
// every cycle, and skipping the cycles its nextEventAt() proves quiet
// (the §4c contract) — both must reproduce the golden exactly.
// Regenerate after an intended change with DX_REGEN_GOLDEN=1
// (tools/regen_golden.sh does this; only the ticking run writes).
// ---------------------------------------------------------------------

namespace
{

struct KernelMix
{
    const char *name;
    unsigned seed;
    double chase;  //!< index load depends on the previous element
    double burst;  //!< a burst of independent int ops follows the load
    double fp;     //!< value op is an fp op (else an int op)
    double store;  //!< element ends in a store
    double rmw;    //!< element ends in a locked RMW
    double fence;  //!< a fence follows the element
    double mmio;   //!< a doorbell + kDxWait pair follows the element
};

constexpr KernelMix kKernelMixes[] = {
    {"chase", 11, 0.8, 0.3, 0.3, 0.2, 0.02, 0.01, 0.01},
    {"mixed", 12, 0.3, 0.3, 0.5, 0.5, 0.05, 0.04, 0.03},
    {"device", 13, 0.1, 0.1, 0.2, 0.3, 0.03, 0.02, 0.12},
};

constexpr unsigned kGoldenElements = 500;
constexpr Addr kIndexBase = 0x100000;
constexpr Addr kDataBase = 0x1000000;
constexpr Addr kDataBytes = 2 << 20; // 64x the L1
constexpr Addr kDoorbell = 0xf0000000;

/** One gather element per chunk, plus the mix's optional extras. */
class MixKernel : public Kernel
{
  public:
    explicit MixKernel(const KernelMix &mix) : mix_(mix), rng_(mix.seed) {}

    bool more() const override { return elements_ < kGoldenElements; }

    void
    emitChunk(OpEmitter &e) override
    {
        const Addr slot = kIndexBase + Addr{elements_++} * 8;
        const SeqNum idx = e.load(slot, 8, 1, 0,
                                  rng_.real() < mix_.chase ? last_ : kNoSeq);
        const SeqNum addr = e.intOp(1, idx);
        const Addr target = kDataBase + rng_.below(kDataBytes / 8) * 8;
        const SeqNum val = e.load(target, 8, 2, 0, addr);
        if (rng_.real() < mix_.burst) {
            for (unsigned n = 0; n < 24; ++n)
                e.intOp();
        }
        last_ = rng_.real() < mix_.fp ? e.fpOp(4, val, last_)
                                      : e.intOp(3, val);
        if (rng_.real() < mix_.store)
            e.store(target, 8, 3, addr, last_);
        if (rng_.real() < mix_.rmw)
            e.rmw(kDataBase + rng_.below(kDataBytes / 8) * 8, 8, 4, last_);
        if (rng_.real() < mix_.fence)
            e.fence();
        if (rng_.real() < mix_.mmio) {
            e.mmioStore(kDoorbell, ++token_, last_);
            e.dxWait(token_);
        }
    }

  private:
    const KernelMix &mix_;
    Rng rng_;
    unsigned elements_ = 0;
    SeqNum last_ = kNoSeq;
    std::uint64_t token_ = 0;
};

/**
 * Device stub: token t reports ready only after its doorbell arrived
 * and t % 3 earlier polls of it failed.
 */
struct CountdownDevice : public MmioDevice
{
    std::set<std::uint64_t> rung;
    std::map<std::uint64_t, unsigned> polls;

    void
    mmioWrite(Addr, std::uint64_t data, int) override
    {
        rung.insert(data);
    }

    bool
    mmioReady(std::uint64_t token, int) override
    {
        return rung.count(token) && polls[token]++ >= token % 3;
    }
};

Core::Config
tightCore()
{
    Core::Config c;
    c.robSize = 24;
    c.lqSize = 6;
    c.sqSize = 4;
    c.loadPorts = 1;
    return c;
}

cache::Cache::Config
tightL1()
{
    cache::Cache::Config c = CoreRig::l1Cfg();
    c.queueSize = 2;
    return c;
}

/** Run one kernel on one config; returns the golden text block. */
std::string
runCommitCase(const KernelMix &mix, bool tight, bool skip)
{
    CoreRig rig(tight ? tightCore() : Core::Config{},
                tight ? tightL1() : CoreRig::l1Cfg());
    MixKernel kernel(mix);
    CountdownDevice dev;
    rig.core.setKernel(&kernel);
    rig.core.setMmioDevice(&dev);

    const Core::Stats &s = rig.core.stats();
    std::ostringstream commits;
    unsigned changes = 0;
    std::uint64_t committed = 0;
    const Cycle cycles =
        rig.run(5'000'000, skip, [&](Cycle now) {
            const std::uint64_t ops = s.committedOps.value();
            if (ops == committed)
                return;
            commits << (changes++ % 12 ? " " : "\n") << now << '+'
                    << ops - committed;
            committed = ops;
        });

    std::ostringstream os;
    os << "case kernel=" << mix.name
       << " core=" << (tight ? "tight" : "default") << " cycles=" << cycles
       << " changes=" << changes << '\n'
       << "stats ops=" << s.committedOps.value()
       << " loads=" << s.committedLoads.value()
       << " stores=" << s.committedStores.value()
       << " rmws=" << s.committedRmws.value()
       << " wait=" << s.waitCycles.value()
       << " robStall=" << s.robStallCycles.value()
       << " lqStall=" << s.lqStallCycles.value()
       << " sqStall=" << s.sqStallCycles.value()
       << " lqOcc=" << s.lqOccupancyAccum
       << " robOcc=" << s.robOccupancyAccum << " coreCycles=" << s.cycles
       << commits.str() << '\n';
    return os.str();
}

/** First line at which two texts differ, for a readable failure. */
std::string
firstDiff(const std::string &want, const std::string &got)
{
    std::istringstream a(want), b(got);
    std::string la, lb;
    for (unsigned line = 1;; ++line) {
        const bool ha = static_cast<bool>(std::getline(a, la));
        const bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            return "no difference";
        if (!ha || !hb || la != lb) {
            return "line " + std::to_string(line) + ":\n  golden: " +
                   (ha ? la : "<end>") + "\n  actual: " +
                   (hb ? lb : "<end>");
        }
    }
}

} // namespace

TEST(CoreGolden, CommitOrderMatchesGolden)
{
    const std::filesystem::path file =
        std::filesystem::path(DX_SOURCE_DIR) / "tests" / "golden" /
        "core_order.txt";

    for (const bool skip : {false, true}) {
        std::string actual;
        for (const KernelMix &mix : kKernelMixes)
            for (const bool tight : {false, true})
                actual += runCommitCase(mix, tight, skip);

        const char *regen = std::getenv("DX_REGEN_GOLDEN");
        if (!skip && regen && regen[0] == '1') {
            std::ofstream(file) << actual;
            continue;
        }
        std::ifstream in(file);
        ASSERT_TRUE(in) << "missing golden file " << file;
        std::ostringstream want;
        want << in.rdbuf();
        EXPECT_TRUE(want.str() == actual)
            << (skip ? "skipping" : "ticking")
            << " driver diverged from the golden commit order at "
            << firstDiff(want.str(), actual);
    }
}
