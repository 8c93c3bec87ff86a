/**
 * @file
 * Cache tests: hit/miss behaviour, LRU, MSHR coalescing, write-allocate,
 * writebacks, inclusive back-invalidation, and the stride prefetcher.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/mem_port.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::cache;

namespace
{

struct TestSink : public CacheRespSink
{
    std::vector<std::pair<std::uint64_t, Cycle>> done;
    Cycle *clock = nullptr;

    void
    complete(const std::uint64_t &tag) override
    {
        done.push_back({tag, clock ? *clock : 0});
    }

    bool
    has(std::uint64_t tag) const
    {
        for (const auto &[t, c] : done) {
            if (t == tag)
                return true;
        }
        return false;
    }
};

/** One cache level in front of DRAM. */
struct Rig
{
    mem::DramSystem dram;
    DramPort port;
    Cache cache;
    TestSink sink;
    Cycle clock = 0;

    explicit Rig(Cache::Config cfg = defaultCfg(), bool refresh = false)
        : dram(dramCfg(refresh)), port(dram), cache(cfg, &port)
    {
        sink.clock = &clock;
    }

    static Cache::Config
    defaultCfg()
    {
        Cache::Config cfg;
        cfg.name = "L1";
        cfg.sizeBytes = 32 * 1024;
        cfg.assoc = 8;
        cfg.latency = 4;
        cfg.mshrs = 16;
        return cfg;
    }

    static mem::DramSystem::Config
    dramCfg(bool refresh)
    {
        mem::DramSystem::Config cfg;
        cfg.ctrl.timings.refreshEnabled = refresh;
        return cfg;
    }

    void
    step(Cycle n = 1)
    {
        for (Cycle i = 0; i < n; ++i) {
            ++clock;
            cache.tick();
            dram.tick();
        }
    }

    void
    access(Addr addr, bool write, std::uint64_t tag,
           std::uint16_t pc = 0)
    {
        CacheReq req;
        req.addr = addr;
        req.write = write;
        req.pc = pc;
        req.tag = tag;
        req.sink = &sink;
        ASSERT_TRUE(cache.canAccept(req));
        cache.request(req);
    }

    void
    runUntil(std::size_t completions, Cycle limit = 100000)
    {
        while (sink.done.size() < completions && clock < limit)
            step();
        ASSERT_GE(sink.done.size(), completions);
    }
};

} // namespace

TEST(Cache, MissThenHitLatency)
{
    Rig rig;
    rig.access(0x1000, false, 1);
    rig.runUntil(1);
    const Cycle missDone = rig.sink.done[0].second;
    EXPECT_GT(missDone, 50u); // went to DRAM

    rig.access(0x1000, false, 2);
    rig.runUntil(2);
    const Cycle hitDone = rig.sink.done[1].second - missDone;
    EXPECT_LE(hitDone, rig.cache.config().latency + 2);

    EXPECT_EQ(rig.cache.stats().demandMisses.value(), 1u);
    EXPECT_EQ(rig.cache.stats().demandHits.value(), 1u);
}

TEST(Cache, SameLineDifferentWordsIsAHit)
{
    Rig rig;
    rig.access(0x2000, false, 1);
    rig.runUntil(1);
    rig.access(0x2004, false, 2);
    rig.access(0x203c, false, 3);
    rig.runUntil(3);
    EXPECT_EQ(rig.cache.stats().demandMisses.value(), 1u);
    EXPECT_EQ(rig.cache.stats().demandHits.value(), 2u);
}

TEST(Cache, MshrCoalescesConcurrentMissesToOneLine)
{
    Rig rig;
    rig.access(0x4000, false, 1);
    rig.access(0x4008, false, 2);
    rig.access(0x4010, false, 3);
    rig.runUntil(3);
    EXPECT_EQ(rig.cache.stats().mshrCoalesced.value(), 2u);
    // Only one DRAM read happened.
    std::uint64_t reads = 0;
    for (unsigned c = 0; c < rig.dram.channels(); ++c)
        reads += rig.dram.channel(c).stats().readsServed.value();
    EXPECT_EQ(reads, 1u);
}

TEST(Cache, DrainAuditFindsIndexesEmpty)
{
    // Twelve distinct lines, reads and writes, then drain: the
    // line -> MSHR index, the free-MSHR bitmap and every controller's
    // per-bank queue counts must all be back to empty. A leaked index
    // slot or bank count panics in the audits.
    Rig rig;
    for (int i = 0; i < 12; ++i)
        rig.access(Addr(i) * 4096 + 0x40, i % 3 == 0, i);
    rig.runUntil(12);
    while (!(rig.cache.drained() && rig.dram.drained()) &&
           rig.clock < 100000) {
        rig.step();
    }
    ASSERT_TRUE(rig.cache.drained() && rig.dram.drained());
    rig.cache.auditDrained();
    for (unsigned c = 0; c < rig.dram.channels(); ++c)
        rig.dram.channel(c).auditDrained();
}

TEST(Cache, LruEvictionAndVictimSelection)
{
    Cache::Config cfg = Rig::defaultCfg();
    cfg.sizeBytes = 8 * kLineBytes; // 2 sets x 4 ways
    cfg.assoc = 4;
    Rig rig(cfg);

    // Fill one set (stride = 2 lines for set 0) with 4 lines, touch the
    // first again, then bring a 5th: the LRU (second) line must go.
    const Addr stride = 2 * kLineBytes;
    for (int i = 0; i < 4; ++i)
        rig.access(Addr(i) * stride, false, 10 + i);
    rig.runUntil(4);
    rig.access(0, false, 20); // touch line 0: now line 1 is LRU
    rig.runUntil(5);
    rig.access(4 * stride, false, 21);
    rig.runUntil(6);

    EXPECT_TRUE(rig.cache.containsLine(0));
    EXPECT_FALSE(rig.cache.containsLine(stride));
    EXPECT_EQ(rig.cache.stats().evictions.value(), 1u);
}

TEST(Cache, WriteAllocateMarksDirtyAndWritesBack)
{
    Cache::Config cfg = Rig::defaultCfg();
    cfg.sizeBytes = 4 * kLineBytes; // 1 set x 4 ways
    cfg.assoc = 4;
    Rig rig(cfg);

    rig.access(0, true, 1); // store miss -> fetch + dirty
    rig.runUntil(1);
    // Evict it by filling the set with 4 more lines.
    for (int i = 1; i <= 4; ++i)
        rig.access(Addr(i) * kLineBytes, false, 1 + i);
    rig.runUntil(5);

    EXPECT_EQ(rig.cache.stats().writebacks.value(), 1u);
    // Wait for the DRAM write to drain (cache first, then controller).
    for (int i = 0;
         i < 5000 && (rig.cache.busy() || !rig.dram.drained()); ++i) {
        rig.step();
    }
    std::uint64_t writes = 0;
    for (unsigned c = 0; c < rig.dram.channels(); ++c)
        writes += rig.dram.channel(c).stats().writesServed.value();
    EXPECT_EQ(writes, 1u);
}

TEST(Cache, FullLineWriteAllocatesWithoutFetch)
{
    Rig rig;
    CacheReq req;
    req.addr = 0x8000;
    req.write = true;
    req.fullLine = true;
    req.origin = mem::Origin::kWriteback;
    req.tag = 1;
    req.sink = &rig.sink;
    rig.cache.request(req);
    rig.step(10);

    EXPECT_TRUE(rig.sink.has(1));
    EXPECT_TRUE(rig.cache.containsLine(0x8000));
    std::uint64_t reads = 0;
    for (unsigned c = 0; c < rig.dram.channels(); ++c)
        reads += rig.dram.channel(c).stats().readsServed.value();
    EXPECT_EQ(reads, 0u);
}

TEST(Cache, BackpressureWhenMshrsExhausted)
{
    Cache::Config cfg = Rig::defaultCfg();
    cfg.mshrs = 2;
    cfg.queueSize = 8;
    Rig rig(cfg);

    for (int i = 0; i < 6; ++i)
        rig.access(Addr(i) * 4096, false, i);
    rig.step(8);
    EXPECT_GT(rig.cache.stats().stallMshrFull.value(), 0u);
    rig.runUntil(6);
    EXPECT_EQ(rig.sink.done.size(), 6u);
}

TEST(Cache, InvalidateLineReportsDirtiness)
{
    Rig rig;
    rig.access(0x100, true, 1);
    rig.access(0x2000, false, 2);
    rig.runUntil(2);
    EXPECT_TRUE(rig.cache.invalidateLine(0x100));   // dirty
    EXPECT_FALSE(rig.cache.invalidateLine(0x2000)); // clean
    EXPECT_FALSE(rig.cache.containsLine(0x100));
}

TEST(Cache, InclusiveRootBackInvalidatesChildren)
{
    // Child L1 in front of an inclusive 1-set LLC.
    mem::DramSystem::Config dcfg;
    dcfg.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dcfg);
    DramPort port(dram);

    Cache::Config llcCfg;
    llcCfg.name = "LLC";
    llcCfg.sizeBytes = 4 * kLineBytes;
    llcCfg.assoc = 4;
    llcCfg.latency = 2;
    llcCfg.mshrs = 8;
    llcCfg.inclusiveRoot = true;
    Cache llc(llcCfg, &port);

    Cache::Config l1Cfg = Rig::defaultCfg();
    Cache l1(l1Cfg, &llc);
    llc.addChild(&l1);

    TestSink sink;
    Cycle clock = 0;
    sink.clock = &clock;

    auto step = [&](Cycle n) {
        for (Cycle i = 0; i < n; ++i) {
            ++clock;
            l1.tick();
            llc.tick();
            dram.tick();
        }
    };

    // Load 5 distinct lines mapping to the single LLC set: the first
    // must be back-invalidated from L1 when the LLC evicts it.
    for (int i = 0; i < 5; ++i) {
        CacheReq req;
        req.addr = Addr(i) * kLineBytes;
        req.tag = static_cast<std::uint64_t>(i);
        req.sink = &sink;
        l1.request(req);
        step(400);
    }

    EXPECT_FALSE(l1.containsLine(0));
    EXPECT_FALSE(llc.containsLine(0));
    EXPECT_GT(llc.stats().backInvalidates.value(), 0u);
}

TEST(StridePrefetcher, DetectsStreamAndQueuesAhead)
{
    StridePrefetcher pf;
    CacheReq req;
    req.pc = 7;
    for (int i = 0; i < 8; ++i) {
        req.addr = Addr(i) * 64;
        pf.observe(req, true);
    }
    // Drain the queue: every candidate is line aligned, and the deepest
    // one reaches past the end of the observed stream.
    Addr line = 0;
    Addr deepest = 0;
    bool any = false;
    while (pf.nextPrefetch(line)) {
        any = true;
        EXPECT_EQ(line % kLineBytes, 0u);
        deepest = std::max(deepest, line);
    }
    ASSERT_TRUE(any);
    EXPECT_GT(deepest, req.addr);
}

TEST(StridePrefetcher, IgnoresRandomAccesses)
{
    StridePrefetcher pf;
    CacheReq req;
    req.pc = 9;
    Addr addrs[] = {0x1000, 0x9340, 0x0200, 0x7777, 0x3210, 0xbeef0};
    for (Addr a : addrs) {
        req.addr = a;
        pf.observe(req, true);
    }
    Addr line;
    EXPECT_FALSE(pf.nextPrefetch(line));
}

TEST(CacheWithPrefetcher, StreamingLoadsBecomeHits)
{
    Rig rig;
    rig.cache.setPrefetcher(std::make_unique<StridePrefetcher>());

    // Two passes over a stream; by the tail of the first pass the
    // prefetcher should be covering misses.
    std::uint64_t tag = 0;
    for (int i = 0; i < 256; ++i) {
        rig.access(Addr(i) * 8, false, tag++, /*pc=*/3);
        rig.runUntil(tag);
    }
    const auto &s = rig.cache.stats();
    EXPECT_GT(s.prefetchesIssued.value(), 4u);
    EXPECT_GT(s.prefetchesUseful.value(), 4u);
    // 256 8-byte loads touch 32 lines; well over half the lines should
    // arrive via prefetch after training.
    EXPECT_LT(s.demandMisses.value(), 20u);
}

TEST(RangeRouter, RoutesByAddressRange)
{
    struct StubPort : public CachePort
    {
        int count = 0;
        bool canAccept(const CacheReq &) const override { return true; }
        void request(const CacheReq &) override { ++count; }
    };

    StubPort dramStub, spdStub;
    RangeRouter router(dramStub);
    router.addRange(0x10000, 0x1000, &spdStub);

    CacheReq req;
    req.addr = 0x10040;
    router.request(req);
    req.addr = 0x20000;
    router.request(req);
    req.addr = 0x10fff;
    router.request(req);

    EXPECT_EQ(spdStub.count, 2);
    EXPECT_EQ(dramStub.count, 1);
}
