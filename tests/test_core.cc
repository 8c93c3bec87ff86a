/**
 * @file
 * Out-of-order core tests: dependency ordering, structural limits,
 * store drain, RMW serialization, and memory-level parallelism.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_port.hh"
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

    CoreRig()
        : dram(dramCfg()), port(dram), llc(llcCfg(), &port),
          l2(l2Cfg(), &llc), l1(l1Cfg(), &l2),
          core(Core::Config{}, 0, &l1)
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

    /** Run until the core reports done; returns elapsed cycles. */
    Cycle
    run(Cycle limit = 1'000'000)
    {
        Cycle cycles = 0;
        while (!core.drained() && cycles < limit) {
            core.tick();
            l1.tick();
            l2.tick();
            llc.tick();
            dram.tick();
            ++cycles;
        }
        EXPECT_TRUE(core.drained()) << "core did not finish";
        return cycles;
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
