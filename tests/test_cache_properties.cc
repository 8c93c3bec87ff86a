/**
 * @file
 * Parameterized cache property tests: monotonicity of miss rates in
 * capacity and associativity, write-back conservation (dirty data is
 * never lost), inclusive-hierarchy invariants under random traffic,
 * and the MSHR bookkeeping (line index, lowest-free tags, coalescing
 * and stall decisions) against a reference model.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_port.hh"
#include "common/rng.hh"
#include "dx100/dx100.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::cache;

namespace
{

/** Run a random working-set trace; return demand misses. */
std::uint64_t
missesFor(std::uint64_t cacheBytes, unsigned assoc,
          std::uint64_t workingSet, std::uint64_t accesses,
          std::uint64_t seed)
{
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);

    Cache::Config cfg;
    cfg.sizeBytes = cacheBytes;
    cfg.assoc = assoc;
    cfg.latency = 2;
    cfg.mshrs = 16;
    Cache cache(cfg, &port);

    struct Sink : public CacheRespSink
    {
        std::uint64_t done = 0;
        void complete(const std::uint64_t &) override { ++done; }
    } sink;

    Rng rng(seed);
    std::uint64_t issued = 0;
    while (sink.done < accesses) {
        if (issued < accesses && cache.canAccept({})) {
            CacheReq req;
            req.addr = lineAlign(rng.below(workingSet));
            req.tag = issued++;
            req.sink = &sink;
            cache.request(req);
        }
        cache.tick();
        dram.tick();
    }
    return cache.stats().demandMisses.value();
}

} // namespace

TEST(CacheProperties, MissRateMonotoneInCapacity)
{
    const std::uint64_t ws = 256 * 1024;
    std::uint64_t prev = ~std::uint64_t{0};
    for (std::uint64_t size : {32u * 1024, 64u * 1024, 128u * 1024,
                               512u * 1024}) {
        const std::uint64_t m = missesFor(size, 8, ws, 20000, 42);
        EXPECT_LE(m, prev) << "size " << size;
        prev = m;
    }
    // The working set fits the largest cache: only cold misses remain.
    EXPECT_LE(prev, ws / kLineBytes + 16);
}

TEST(CacheProperties, HigherAssociativityNeverMuchWorse)
{
    // With a random trace, conflict misses shrink as associativity
    // grows (allowing small noise).
    const std::uint64_t ws = 128 * 1024;
    const std::uint64_t direct = missesFor(64 * 1024, 1, ws, 20000, 7);
    const std::uint64_t assoc8 = missesFor(64 * 1024, 8, ws, 20000, 7);
    EXPECT_LE(assoc8, direct + direct / 10);
}

TEST(CacheProperties, DirtyEvictionsAllReachMemory)
{
    // Write every line of a 4x-capacity region, then read a disjoint
    // region to force eviction of everything dirty: DRAM must receive
    // exactly one write per dirty line.
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);

    Cache::Config cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = 4;
    cfg.latency = 2;
    cfg.mshrs = 8;
    Cache cache(cfg, &port);

    struct Sink : public CacheRespSink
    {
        std::uint64_t done = 0;
        void complete(const std::uint64_t &) override { ++done; }
    } sink;

    auto pump = [&](Addr base, std::uint64_t lines, bool write) {
        std::uint64_t issued = 0;
        const std::uint64_t start = sink.done;
        while (sink.done < start + lines) {
            if (issued < lines && cache.canAccept({})) {
                CacheReq req;
                req.addr = base + issued * kLineBytes;
                req.write = write;
                req.fullLine = write;
                req.tag = issued++;
                req.sink = &sink;
                cache.request(req);
            }
            cache.tick();
            dram.tick();
        }
    };

    const std::uint64_t dirtyLines = 1024; // 64 KiB of dirty data
    pump(0, dirtyLines, true);
    pump(1 << 20, 2048, false); // evict everything
    for (int t = 0; t < 200000 && !(dram.drained() && !cache.busy()); ++t) {
        cache.tick();
        dram.tick();
    }

    std::uint64_t writes = 0;
    for (unsigned c = 0; c < dram.channels(); ++c)
        writes += dram.channel(c).stats().writesServed.value();
    EXPECT_EQ(writes, dirtyLines);
}

TEST(CacheProperties, InclusiveHierarchyNeverHoldsLineAboveLlc)
{
    // Random traffic through L1->LLC with a tiny inclusive LLC: at any
    // checkpoint, every valid L1 line must be present in the LLC.
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);

    Cache::Config llcCfg;
    llcCfg.name = "LLC";
    llcCfg.sizeBytes = 8 * 1024;
    llcCfg.assoc = 4;
    llcCfg.latency = 4;
    llcCfg.mshrs = 16;
    llcCfg.inclusiveRoot = true;
    Cache llc(llcCfg, &port);

    Cache::Config l1Cfg;
    l1Cfg.name = "L1";
    l1Cfg.sizeBytes = 4 * 1024;
    l1Cfg.assoc = 4;
    l1Cfg.latency = 1;
    l1Cfg.mshrs = 8;
    Cache l1(l1Cfg, &llc);
    llc.addChild(&l1);

    struct Sink : public CacheRespSink
    {
        void complete(const std::uint64_t &) override {}
    } sink;

    Rng rng(11);
    std::vector<Addr> touched;
    for (int step = 0; step < 20000; ++step) {
        if (l1.canAccept({}) && rng.below(2)) {
            CacheReq req;
            req.addr = lineAlign(rng.below(256 * 1024));
            req.sink = &sink;
            l1.request(req);
            touched.push_back(lineAlign(req.addr));
        }
        l1.tick();
        llc.tick();
        dram.tick();

        if (step % 1000 == 999) {
            // Inclusion is a tag-store property: a line *installed*
            // in the L1 must be installed (or mid-fill) in the LLC.
            for (const Addr line : touched) {
                if (l1.tagsHold(line)) {
                    EXPECT_TRUE(llc.containsLine(line))
                        << "inclusion violated for 0x" << std::hex
                        << line;
                }
            }
        }
    }
}

namespace
{

/** Downstream stub: accepts every fetch; fills arrive only on demand. */
struct FetchRecorder : public CachePort
{
    std::vector<CacheReq> fetches;
    bool canAccept(const CacheReq &) const override { return true; }
    void request(const CacheReq &req) override { fetches.push_back(req); }
};

struct CountingSink : public CacheRespSink
{
    std::uint64_t done = 0;
    void complete(const std::uint64_t &) override { ++done; }
};

/** A port client that counts the departures it is woken for. */
struct DepartureCounter : public Component
{
    DepartureCounter() : Component("client") {}
    unsigned woken = 0;
    void departure() override { ++woken; }
};

class MshrIndex : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(MshrIndex, OutOfOrderFillsMatchModel)
{
    const unsigned mshrs = GetParam();
    const unsigned targetsPerMshr = 2;
    FetchRecorder down;
    Cache::Config cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = 4;
    cfg.latency = 1;
    cfg.width = 1;
    cfg.mshrs = mshrs;
    cfg.targetsPerMshr = targetsPerMshr;
    Cache cache(cfg, &down);
    CountingSink sink;
    DepartureCounter upstream;
    cache.addClient(upstream);

    // Lines 1 MiB apart share one cache set. With 16 or 256 MSHRs the
    // index is up to half full, so probe-run collisions are likely and
    // an erase without the backward shift fails this test. With 1 MSHR
    // no collision is possible; that case checks the tag and stall
    // rules alone.
    std::vector<Addr> pool;
    for (unsigned k = 0; k < 2 * mshrs + 3; ++k)
        pool.push_back(Addr{k} << 20);

    // Reference model: live MSHRs by line, and the free tags.
    struct Live
    {
        std::uint64_t tag;
        unsigned targets;
    };
    std::map<Addr, Live> live;
    std::set<std::uint64_t> freeTags;
    for (unsigned i = 0; i < mshrs; ++i)
        freeTags.insert(i);

    enum class Outcome { kAlloc, kCoalesce, kTargetStall, kFullStall };
    std::map<Outcome, unsigned> seen;
    std::optional<Addr> head; // the request at the queue head, if any
    std::uint64_t sent = 0;
    std::uint64_t filled = 0; // completions the sink should have seen

    auto fill = [&](std::map<Addr, Live>::iterator it) {
        const Addr line = it->first;
        cache.complete(it->second.tag);
        filled += it->second.targets;
        EXPECT_EQ(sink.done, filled);
        EXPECT_TRUE(cache.tagsHold(line));
        // With the line dropped from the tag store, only a stale index
        // entry could still report it.
        cache.invalidateLine(line);
        EXPECT_FALSE(cache.containsLine(line)) << std::hex << line;
        freeTags.insert(it->second.tag);
        live.erase(it);
        for (const auto &[l, m] : live)
            EXPECT_TRUE(cache.containsLine(l)) << std::hex << l;
    };

    Rng rng(mshrs);
    bool stalled = false; // the head stalled on the last tick
    for (int step = 0; step < 8000; ++step) {
        if (!head && rng.below(4) != 0) {
            CacheReq req;
            req.addr = pool[rng.below(pool.size())];
            req.tag = sent++;
            req.sink = &sink;
            ASSERT_TRUE(cache.canAccept(req));
            cache.request(req);
            head = req.addr;
        }
        // Fills are rare, so the MSHRs fill up, except that a stalled
        // head soon sees one — often of the very line it waits on.
        if (!live.empty() && rng.below(stalled ? 2 : 16) == 0) {
            auto it = head ? live.find(*head) : live.end();
            if (it == live.end() || rng.below(2))
                it = std::next(live.begin(),
                               static_cast<long>(rng.below(live.size())));
            fill(it);
        }
        if (!head) {
            cache.tick();
            continue;
        }

        Outcome expect;
        const auto it = live.find(*head);
        if (it != live.end()) {
            expect = it->second.targets < targetsPerMshr
                         ? Outcome::kCoalesce
                         : Outcome::kTargetStall;
        } else {
            expect = freeTags.empty() ? Outcome::kFullStall
                                      : Outcome::kAlloc;
        }
        const std::size_t fetches = down.fetches.size();
        const unsigned pops = upstream.woken;
        const std::uint64_t coalesced =
            cache.stats().mshrCoalesced.value();
        const std::uint64_t stalls = cache.stats().stallMshrFull.value();
        cache.tick();
        ++seen[expect];
        stalled = expect == Outcome::kTargetStall ||
                  expect == Outcome::kFullStall;

        switch (expect) {
          case Outcome::kAlloc:
            ASSERT_EQ(down.fetches.size(), fetches + 1);
            EXPECT_EQ(lineAlign(down.fetches.back().addr), *head);
            // The downstream tag is always the lowest free MSHR.
            EXPECT_EQ(down.fetches.back().tag, *freeTags.begin());
            live[*head] = {down.fetches.back().tag, 1};
            freeTags.erase(freeTags.begin());
            EXPECT_TRUE(cache.containsLine(*head));
            break;
          case Outcome::kCoalesce:
            EXPECT_EQ(down.fetches.size(), fetches);
            EXPECT_EQ(cache.stats().mshrCoalesced.value(), coalesced + 1);
            ++live[*head].targets;
            break;
          case Outcome::kTargetStall:
          case Outcome::kFullStall:
            EXPECT_EQ(down.fetches.size(), fetches);
            EXPECT_EQ(cache.stats().stallMshrFull.value(), stalls + 1);
            EXPECT_EQ(upstream.woken, pops);
            continue; // the head stays put and retries
        }
        EXPECT_EQ(upstream.woken, pops + 1);
        head.reset();
    }

    // Every decision kind must actually have been exercised.
    EXPECT_GT(seen[Outcome::kAlloc], 0u);
    EXPECT_GT(seen[Outcome::kCoalesce], 0u);
    EXPECT_GT(seen[Outcome::kTargetStall], 0u);
    EXPECT_GT(seen[Outcome::kFullStall], 0u);

    // Drain: once every fill is answered the head (if any) allocates
    // and, filled too, leaves each request sent answered exactly once.
    while (!live.empty())
        fill(live.begin());
    if (head) {
        cache.tick();
        ASSERT_FALSE(down.fetches.empty());
        EXPECT_EQ(lineAlign(down.fetches.back().addr), *head);
        EXPECT_EQ(down.fetches.back().tag, 0u);
        cache.complete(down.fetches.back().tag);
    }
    EXPECT_FALSE(cache.busy());
    EXPECT_EQ(sink.done, sent);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MshrIndex,
                         ::testing::Values(1u, 3u, 16u, 256u));

// Departure wakes: an entry leaving a cache input queue, a DRAM
// channel buffer or the scratchpad port wakes every client bound to
// that port. A client of the range router waits on its fallback and
// on every routed port, including ranges added after it was bound.
TEST(CacheProperties, DeparturesWakeBoundClients)
{
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);
    RangeRouter router(port);
    DepartureCounter early;
    PortSlot<CacheReq> earlySlot("early");
    earlySlot.bind(router, early);

    Cache cache(Cache::Config{}, &router);
    DepartureCounter upstreamA;
    DepartureCounter upstreamB;
    cache.addClient(upstreamA);
    cache.addClient(upstreamB);

    // Cache queue pop, then the DRAM read that fills the miss.
    CountingSink sink;
    CacheReq req;
    req.addr = 0x1000;
    req.sink = &sink;
    cache.request(req);
    for (int t = 0; t < 10000 && sink.done == 0; ++t) {
        cache.tick();
        dram.tick();
    }
    ASSERT_EQ(sink.done, 1u);
    EXPECT_EQ(upstreamA.woken, 1u);
    EXPECT_EQ(upstreamB.woken, 1u);
    EXPECT_EQ(early.woken, 1u); // one DRAM dequeue

    // The scratchpad port, routed after `early` was bound.
    dx100::Dx100Config xc;
    dx100::Dx100 dx(xc, dram, nullptr, dx100::CoherencyAgent{}, 1);
    router.addRange(xc.spdBase, xc.spdSize(), &dx.spdPort());
    DepartureCounter late;
    PortSlot<CacheReq> lateSlot("late");
    lateSlot.bind(router, late);

    CacheReq spd;
    spd.addr = xc.spdBase;
    spd.sink = &sink;
    ASSERT_TRUE(router.canAccept(spd));
    router.request(spd);
    for (int t = 0; t < 10000 && sink.done == 1; ++t)
        dx.tick();
    ASSERT_EQ(sink.done, 2u);
    EXPECT_EQ(early.woken, 2u);
    EXPECT_EQ(late.woken, 1u);
    EXPECT_EQ(upstreamA.woken, 1u); // not bound to the router
}

namespace
{

/** Downstream stub whose admission the test opens and closes. */
struct GatedPort : public CachePort
{
    bool open = true;
    std::vector<CacheReq> fetches;
    bool canAccept(const CacheReq &) const override { return open; }
    void request(const CacheReq &req) override { fetches.push_back(req); }
};

} // namespace

// Admission below the LLC asks only the resource the request would
// take: one channel's full read queue must not refuse a read headed to
// the other channel, nor a write to its own (empty) write queue, and a
// scratchpad-range line asks only the routed port, whatever DRAM holds.
TEST(CacheProperties, DramAdmissionAsksOnlyTheTargetQueue)
{
    mem::DramSystem::Config dc;
    dc.ctrl.geom.channels = 2;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);
    RangeRouter router(port);
    const mem::AddressMap &map = dram.addressMap();
    auto lineIn = [&](unsigned channel, unsigned row) {
        mem::DramCoord c;
        c.channel = static_cast<std::uint16_t>(channel);
        c.row = row;
        return map.compose(c);
    };
    auto req = [](Addr addr, bool write) {
        CacheReq r;
        r.addr = addr;
        r.write = write;
        r.fullLine = write;
        return r;
    };

    // The scratchpad range holds one line of each channel.
    GatedPort spd;
    const Addr spdBase = lineIn(0, 7);
    ASSERT_EQ(lineIn(1, 7), spdBase + kLineBytes);
    router.addRange(spdBase, 2 * kLineBytes, &spd);

    // Fill channel 0's read queue through the router, without ticking.
    for (unsigned i = 0; i < dc.ctrl.readQueueSize; ++i) {
        const CacheReq r = req(lineIn(0, 100 + i), false);
        ASSERT_TRUE(router.canAccept(r)) << i;
        router.request(r);
    }
    ASSERT_FALSE(dram.channel(0).canAccept(false));
    ASSERT_TRUE(dram.channel(1).canAccept(false));

    EXPECT_FALSE(router.canAccept(req(lineIn(0, 200), false)));
    EXPECT_TRUE(router.canAccept(req(lineIn(1, 200), false)));
    EXPECT_TRUE(router.canAccept(req(lineIn(0, 200), true)));

    for (const Addr a : {spdBase, spdBase + kLineBytes}) {
        spd.open = true;
        EXPECT_TRUE(router.canAccept(req(a, false))) << a;
        spd.open = false;
        EXPECT_FALSE(router.canAccept(req(a, false))) << a;
    }
    EXPECT_TRUE(spd.fetches.empty());
}

// The sleep contract, driven by hand: the tick that stalls the head
// books one cycle and records why, nextEventAt() then sleeps on that
// verdict, skipCycles() books the slept cycles to it, and only the
// event that can end the stall wakes the cache: a departure for a
// downstream stall, a fill for an MSHR-full one.
TEST(CacheProperties, SleepsOnTheStallItsTickRecorded)
{
    GatedPort down;
    Cache::Config cfg;
    cfg.latency = 1;
    cfg.width = 1;
    cfg.mshrs = 2;
    Cache cache(cfg, &down);
    CountingSink sink;
    Cycle now = 0; // the cache's clock
    auto send = [&](Addr addr) {
        CacheReq req;
        req.addr = addr;
        req.sink = &sink;
        cache.request(req);
    };
    auto tick = [&] {
        EXPECT_EQ(cache.nextEventAt(), now + 1);
        cache.tick();
        ++now;
    };
    auto skip = [&](Cycle n) {
        cache.skipCycles(n);
        now += n;
    };
    const Cache::Stats &st = cache.stats();

    send(0x0000); // line A takes MSHR 0
    tick();
    ASSERT_EQ(down.fetches.size(), 1u);

    // Downstream stall: line B has a free MSHR but no room below.
    down.open = false;
    send(0x1000);
    tick();
    EXPECT_EQ(st.stallDownstream.value(), 1u);
    EXPECT_EQ(st.stallMshrFull.value(), 0u);
    EXPECT_EQ(cache.nextEventAt(), kNeverCycle);
    skip(5);
    EXPECT_EQ(st.stallDownstream.value(), 6u);
    cache.complete(0); // fill A: cannot make room downstream
    EXPECT_EQ(sink.done, 1u);
    EXPECT_EQ(cache.nextEventAt(), kNeverCycle);
    down.open = true;
    down.departed();
    tick(); // B takes MSHR 0
    ASSERT_EQ(down.fetches.size(), 2u);
    EXPECT_EQ(down.fetches.back().tag, 0u);
    EXPECT_EQ(st.stallDownstream.value(), 6u);

    // MSHR-full stall: C takes MSHR 1, then D finds none free.
    send(0x2000);
    tick();
    send(0x3000);
    tick();
    EXPECT_EQ(st.stallMshrFull.value(), 1u);
    EXPECT_EQ(cache.nextEventAt(), kNeverCycle);
    skip(3);
    EXPECT_EQ(st.stallMshrFull.value(), 4u);
    down.departed(); // room below cannot free an MSHR
    EXPECT_EQ(cache.nextEventAt(), kNeverCycle);
    cache.complete(1); // fill C
    tick();            // D takes MSHR 1
    ASSERT_EQ(down.fetches.size(), 4u);
    EXPECT_EQ(lineAlign(down.fetches.back().addr), Addr{0x3000});
    EXPECT_EQ(st.stallMshrFull.value(), 4u);
    EXPECT_EQ(st.stallDownstream.value(), 6u);
}

// The replacement rule on one set: a fill takes an invalidated way
// before it evicts anything; otherwise it evicts the least recently
// used line, and re-installing a resident line refreshes its recency.
TEST(CacheProperties, VictimIsFirstInvalidWayElseLeastRecentlyUsed)
{
    GatedPort down;
    Cache::Config cfg;
    cfg.sizeBytes = 8 * kLineBytes;
    cfg.assoc = 4; // two sets
    Cache cache(cfg, &down);
    const Cache::Stats &st = cache.stats();
    auto line = [](unsigned i) { return Addr{i} * 2 * kLineBytes; };
    auto holds = [&](std::initializer_list<unsigned> ids) {
        for (unsigned i : ids) {
            if (!cache.tagsHold(line(i)))
                return false;
        }
        return true;
    };
    const Addr otherSet = 21 * kLineBytes;
    cache.warmInsert(otherSet);

    for (unsigned i = 0; i < 4; ++i)
        cache.warmInsert(line(i));
    EXPECT_TRUE(holds({0, 1, 2, 3}));

    // One hole: the fill takes it and evicts nothing.
    EXPECT_FALSE(cache.invalidateLine(line(1)));
    EXPECT_FALSE(cache.tagsHold(line(1)));
    cache.warmInsert(line(4));
    EXPECT_TRUE(holds({0, 2, 3, 4}));
    EXPECT_EQ(st.evictions.value(), 0u);

    // Two holes, the later way freed first: both fills land in holes,
    // and line 3, the least recently used, stays.
    EXPECT_FALSE(cache.invalidateLine(line(2)));
    EXPECT_FALSE(cache.invalidateLine(line(0)));
    cache.warmInsert(line(5));
    cache.warmInsert(line(6));
    EXPECT_TRUE(holds({3, 4, 5, 6}));
    EXPECT_EQ(st.evictions.value(), 0u);

    // Full set: recency order is 3, 4, 5, 6. Re-installing 3 makes it
    // the most recent, so 4 and then 5 are the victims.
    cache.warmInsert(line(3));
    cache.warmInsert(line(7));
    EXPECT_TRUE(holds({3, 5, 6, 7}));
    EXPECT_FALSE(cache.tagsHold(line(4)));
    EXPECT_EQ(st.evictions.value(), 1u);
    cache.warmInsert(line(8));
    EXPECT_TRUE(holds({3, 6, 7, 8}));
    EXPECT_FALSE(cache.tagsHold(line(5)));
    EXPECT_EQ(st.evictions.value(), 2u);

    EXPECT_TRUE(cache.tagsHold(otherSet));
    EXPECT_TRUE(down.fetches.empty());
}
