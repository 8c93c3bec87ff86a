/**
 * @file
 * Failure-injection and misuse tests: illegal API usage panics
 * (caught as death tests), TLB-miss penalties show up in timing,
 * doorbell protocol violations are detected, the dispatch window
 * survives adversarial instruction mixes, and a DX100 that can never
 * progress is stopped by its wedge watchdog.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/dx100_api.hh"
#include "sim/system.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

struct DirectEmitter : public cpu::OpEmitter
{
    dx100::Dx100 *dev = nullptr;
    SeqNum next = 1;

    SeqNum
    emit(const cpu::MicroOp &op) override
    {
        if (dev && op.kind == cpu::OpKind::kMmioStore)
            dev->mmioWrite(op.addr, op.value, 0);
        return next++;
    }
};

/** A cache port that takes every request and never answers. */
struct BlackHolePort : public cache::CachePort
{
    unsigned taken = 0;

    bool canAccept(const cache::CacheReq &) const override
    {
        return true;
    }
    void request(const cache::CacheReq &) override { ++taken; }
};

} // namespace

using FailureDeathTest = ::testing::Test;

TEST(FailureDeathTest, NonCommutativeRmwPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const unsigned t1 = rt->allocTile();
    const unsigned t2 = rt->allocTile();
    DirectEmitter e;
    e.dev = sys.dx100(0);
    EXPECT_DEATH(rt->irmw(e, 0, runtime::DataType::kU32,
                          runtime::AluOp::kSub, 0x1000, t1, t2),
                 "associative");
}

TEST(FailureDeathTest, OversizedStreamPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const unsigned t = rt->allocTile();
    DirectEmitter e;
    e.dev = sys.dx100(0);
    EXPECT_DEATH(rt->sld(e, 0, runtime::DataType::kU32, 0x1000, t, 0,
                         rt->tileElems() + 1),
                 "tile");
}

TEST(FailureDeathTest, DoubleFreeTilePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const unsigned t = rt->allocTile();
    rt->freeTile(t);
    EXPECT_DEATH(rt->freeTile(t), "unallocated");
}

TEST(FailureDeathTest, OutOfOrderDoorbellWordsPanic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *dev = sys.dx100(0);
    // Word 1 before word 0 violates the doorbell protocol.
    EXPECT_DEATH(dev->mmioWrite(dev->config().doorbellAddr(0, 1), 0,
                                0),
                 "doorbell");
}

TEST(FailureModes, TlbMissPenaltyIsVisibleInTiming)
{
    // Same gather, once with PTEs transferred and once without: the
    // unregistered run must pay PTE-walk penalties.
    auto runGather = [](bool registerRegions) {
        System sys(SystemConfig::withDx100());
        auto *rt = sys.runtime(0);
        SimMemory &mem = sys.memory();
        const std::size_t n = 8192;
        // Spread over many huge pages to make walks frequent.
        const Addr a = sys.allocator().alloc(Addr{512} << 21);
        const Addr b = sys.allocator().alloc(n * 4);
        Rng rng(6);
        for (std::size_t i = 0; i < n; ++i) {
            mem.write<std::uint32_t>(
                b + i * 4,
                static_cast<std::uint32_t>(rng.below(1 << 28)));
        }
        if (registerRegions) {
            rt->registerRegion(a, Addr{512} << 21);
            rt->registerRegion(b, n * 4);
        }

        DirectEmitter e;
        e.dev = sys.dx100(0);
        const unsigned idx = rt->allocTile();
        const unsigned dat = rt->allocTile();
        rt->sld(e, 0, runtime::DataType::kU32, b, idx, 0, n);
        rt->ild(e, 0, runtime::DataType::kU32, a, dat, idx);
        Cycle t = 0;
        while (!sys.dx100(0)->drained() && t < 50'000'000) {
            sys.tick();
            ++t;
        }
        return t;
    };

    const Cycle with = runGather(true);
    const Cycle without = runGather(false);
    EXPECT_GT(without, with + 1000);
}

TEST(FailureModes, DispatchSurvivesAdversarialHazardMix)
{
    // A long chain of instructions all hammering the same two tiles:
    // the scoreboard must serialize them without deadlock or loss.
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const std::size_t n = 1024;
    const Addr src = sys.allocator().alloc(n * 4);
    rt->registerRegion(src, n * 4);

    DirectEmitter e;
    e.dev = sys.dx100(0);
    const unsigned t1 = rt->allocTile();
    const unsigned t2 = rt->allocTile();
    rt->sld(e, 0, runtime::DataType::kU32, src, t1, 0, n);
    std::uint64_t lastTok = 0;
    for (int round = 0; round < 20; ++round) {
        lastTok = rt->alus(e, 0, runtime::DataType::kU32,
                           runtime::AluOp::kAdd,
                           round % 2 ? t1 : t2, round % 2 ? t2 : t1,
                           1);
    }
    Cycle t = 0;
    while (!sys.dx100(0)->drained() && t < 10'000'000) {
        sys.tick();
        ++t;
    }
    ASSERT_TRUE(sys.dx100(0)->drained());
    EXPECT_TRUE(sys.dx100(0)->mmioReady(lastTok, 0));
    EXPECT_EQ(sys.dx100(0)->stats().instructionsRetired.value(), 21u);
    // Functional result: alternating adds accumulate 20 on the chain.
    EXPECT_EQ(rt->spdValue(t1, 5),
              sys.memory().read<std::uint32_t>(src + 5 * 4) + 20);
}

TEST(FailureModes, WedgedDx100IsFatalNotASpin)
{
    // A standalone DX100 whose LLC port swallows every line request: the
    // stream load fills its request table and then waits forever. The
    // watchdog must stop it a fixed 2^24 cycles after its last progress.
    mem::DramSystem dram{mem::DramSystem::Config{}};
    BlackHolePort llc;
    dx100::Dx100 dev(dx100::Dx100Config{}, dram, &llc,
                     dx100::CoherencyAgent{}, 1);
    SimMemory mem;
    runtime::Dx100Runtime rt(dev, mem);
    DirectEmitter e;
    e.dev = &dev;
    rt.sld(e, 0, runtime::DataType::kU32, 0x100000, rt.allocTile(), 0,
           4096);

    ScopedFatalThrow guard;
    Cycle ticks = 0;
    std::string what;
    try {
        for (; ticks < 2 * dx100::Dx100::kWedgeCycles; ++ticks)
            dev.tick();
    } catch (const FatalError &err) {
        what = err.what();
    }
    EXPECT_EQ(llc.taken, dev.config().requestTableSize);
    EXPECT_NE(what.find("wedged"), std::string::npos) << what;
    EXPECT_NE(what.find("stream=busy"), std::string::npos) << what;
    // The last progress is the final request, two per cycle.
    EXPECT_GE(ticks, dx100::Dx100::kWedgeCycles);
    EXPECT_LE(ticks, dx100::Dx100::kWedgeCycles +
                         dev.config().requestTableSize);
}
