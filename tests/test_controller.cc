/**
 * @file
 * Memory controller tests: latency, row-buffer behaviour, bank-group
 * spacing, write drain, refresh, FR-FCFS reordering, and a golden
 * record of the exact command order under seeded random traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::mem;

namespace
{

struct Collector : public Completion<std::uint64_t>
{
    struct Done
    {
        std::uint64_t tag;
        Cycle at;
        bool write;
    };

    /** What issue() sent under a tag: its channel and write bit. */
    struct Issued
    {
        unsigned channel;
        bool write;
    };

    std::vector<Done> done;
    std::map<std::uint64_t, Issued> issued;
    DramSystem *dram = nullptr;

    /** Send one line request that completes here under @p tag. */
    void
    issue(Addr addr, bool write, std::uint64_t tag)
    {
        issued[tag] = {dram->channelOf(addr), write};
        dram->access(addr, write, tag, this);
    }

    void
    complete(const std::uint64_t &tag) override
    {
        const Issued &i = issued.at(tag);
        done.push_back({tag, dram->channel(i.channel).now(), i.write});
    }
};

DramSystem::Config
testConfig(bool refresh = false)
{
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = refresh;
    return cfg;
}

void
run(DramSystem &dram, Cycle coreCycles)
{
    for (Cycle i = 0; i < coreCycles; ++i)
        dram.tick();
}

void
runUntilIdle(DramSystem &dram, Cycle maxCore = 2'000'000)
{
    for (Cycle i = 0; i < maxCore && !dram.drained(); ++i)
        dram.tick();
    ASSERT_TRUE(dram.drained());
}

} // namespace

TEST(Controller, SingleReadLatencyIsActPlusCasPlusBurst)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    sink.issue(0, false, 1);
    runUntilIdle(dram);

    ASSERT_EQ(sink.done.size(), 1u);
    const auto &t = dram.channel(0).config().timings;
    // Closed bank: ACT at cycle ~1, RD at +tRCD, data at +tCL+tBL.
    const Cycle expect = 1 + t.tRCD + t.tCL + t.tBL;
    EXPECT_NEAR(static_cast<double>(sink.done[0].at),
                static_cast<double>(expect), 2.0);
}

TEST(Controller, RowHitFollowsFasterThanRowMiss)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    // Two lines in the same row (stride channels*bankGroups lines), then
    // one in a different row of the same bank.
    const AddressMap &map = dram.addressMap();
    const DramCoord c0 = map.decompose(0);
    DramCoord hit = c0;
    hit.column = c0.column + 1;
    DramCoord miss = c0;
    miss.row = c0.row + 1;

    sink.issue(map.compose(c0), false, 0);
    sink.issue(map.compose(hit), false, 1);
    sink.issue(map.compose(miss), false, 2);
    runUntilIdle(dram);

    ASSERT_EQ(sink.done.size(), 3u);
    const auto &s = dram.channel(c0.channel).stats();
    EXPECT_EQ(s.rowHits.value(), 1u);
    EXPECT_EQ(s.rowMisses.value(), 2u);
    EXPECT_EQ(s.rowConflicts.value(), 1u);

    // The same-row access completes tCCD_L after the opener; the
    // conflicting row needs PRE + ACT + CAS.
    const Cycle hitGap = sink.done[1].at - sink.done[0].at;
    const Cycle missGap = sink.done[2].at - sink.done[1].at;
    EXPECT_LT(hitGap, missGap);
}

TEST(Controller, FrfcfsReordersRowHitsAheadOfOlderConflicts)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    const AddressMap &map = dram.addressMap();
    const DramCoord base = map.decompose(0);

    // Open row R (tag 0), then a conflicting row (tag 1), then another
    // access to R (tag 2). FR-FCFS should serve 0, 2, then 1.
    DramCoord conflict = base;
    conflict.row = base.row + 5;
    DramCoord hit = base;
    hit.column = base.column + 3;

    sink.issue(map.compose(base), false, 0);
    // Let the ACT for row R land before the conflict arrives.
    run(dram, 8);
    sink.issue(map.compose(conflict), false, 1);
    sink.issue(map.compose(hit), false, 2);
    runUntilIdle(dram);

    ASSERT_EQ(sink.done.size(), 3u);
    EXPECT_EQ(sink.done[0].tag, 0u);
    EXPECT_EQ(sink.done[1].tag, 2u);
    EXPECT_EQ(sink.done[2].tag, 1u);
}

TEST(Controller, BankGroupInterleavingBeatsSameBankGroupStreams)
{
    // Issue 64 reads to open rows: once to columns spread across bank
    // groups, once confined to a single bank group. The interleaved set
    // must finish faster (tCCD_S vs tCCD_L).
    auto elapsed = [](bool interleave) {
        DramSystem dram(testConfig());
        Collector sink;
        sink.dram = &dram;
        const AddressMap &map = dram.addressMap();

        unsigned issued = 0;
        Cycle core = 0;
        while (issued < 64 || !dram.drained()) {
            while (issued < 64) {
                DramCoord c{};
                c.channel = 0;
                c.bankGroup = interleave ? (issued % 4) : 0;
                c.bank = 0;
                c.row = 0;
                c.column = issued / (interleave ? 4 : 1);
                const Addr a = map.compose(c);
                if (!dram.canAccept(a, false))
                    break;
                sink.issue(a, false, issued);
                ++issued;
            }
            dram.tick();
            ++core;
        }
        return core;
    };

    const Cycle inter = elapsed(true);
    const Cycle same = elapsed(false);
    EXPECT_LT(inter, same);
    // Same-bank-group streams are limited by tCCD_L = 2 * tCCD_S.
    EXPECT_GT(static_cast<double>(same) / inter, 1.5);
}

TEST(Controller, WritesDrainAndComplete)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    for (unsigned i = 0; i < 24; ++i) {
        sink.issue(Addr{i} * kLineBytes, true, i);
    }
    runUntilIdle(dram);
    EXPECT_EQ(sink.done.size(), 24u);
    std::uint64_t writes = 0;
    for (unsigned c = 0; c < dram.channels(); ++c)
        writes += dram.channel(c).stats().writesServed.value();
    EXPECT_EQ(writes, 24u);
}

TEST(Controller, ReadsPreferredOverWritesBelowWatermark)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    // A few writes (below the high watermark) plus a read: the read
    // should complete before any write is drained.
    for (unsigned i = 0; i < 4; ++i) {
        sink.issue(Addr{i} * 4096, true, 100 + i);
    }
    sink.issue(Addr{1} << 20, false, 0);
    runUntilIdle(dram);

    ASSERT_FALSE(sink.done.empty());
    // Find the read; ensure it is among the first completions on its
    // channel.
    bool readSeen = false;
    for (const auto &d : sink.done) {
        if (d.tag == 0) {
            readSeen = true;
            break;
        }
        // Writes that completed before the read must be on the other
        // channel.
        EXPECT_NE(dram.channelOf(Addr{d.tag - 100} * 4096),
                  dram.channelOf(Addr{1} << 20));
    }
    EXPECT_TRUE(readSeen);
}

TEST(Controller, RefreshClosesRowsPeriodically)
{
    DramSystem dram(testConfig(true));
    Collector sink;
    sink.dram = &dram;

    // Run past one tREFI with no traffic; a REF must have been issued.
    const auto &t = dram.channel(0).config().timings;
    run(dram, (t.tREFI + t.tRFC + 100) * 2);
    EXPECT_GE(dram.channel(0).stats().refCommands.value(), 1u);

    // Requests issued after refresh still complete.
    sink.issue(0, false, 1);
    runUntilIdle(dram);
    EXPECT_EQ(sink.done.size(), 1u);
}

TEST(Controller, BackpressureReportsQueueFull)
{
    DramSystem dram(testConfig());
    // Fill channel 0's read queue (32 entries).
    unsigned enqueued = 0;
    for (unsigned i = 0; enqueued < 32; ++i) {
        const Addr a = Addr{i} * kLineBytes;
        if (dram.channelOf(a) != 0)
            continue;
        ASSERT_TRUE(dram.canAccept(a, false));
        dram.access(a, false, i, nullptr);
        ++enqueued;
    }
    // Next request to channel 0 must be refused.
    Addr a = 0;
    EXPECT_FALSE(dram.canAccept(a, false));
    EXPECT_FALSE(dram.channel(0).canAccept(false));
}

TEST(Controller, StreamingReachesHighBusUtilization)
{
    // Sequential lines with the default interleaved mapping should keep
    // the data bus busy most of the time once the queues are primed.
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    Addr next = 0;
    const Addr total = 4000;
    Addr issued = 0;
    while (issued < total || !dram.drained()) {
        while (issued < total && dram.canAccept(next, false)) {
            sink.issue(next, false, issued);
            next += kLineBytes;
            ++issued;
        }
        dram.tick();
    }

    EXPECT_GT(dram.busUtilization(), 0.85);
    EXPECT_GT(dram.rowHitRate(), 0.9);
}

TEST(Controller, RandomRowsYieldLowRowHitRate)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;
    dx::Rng rng(99);

    Addr issued = 0;
    const Addr total = 4000;
    while (issued < total || !dram.drained()) {
        while (issued < total) {
            const Addr a =
                lineAlign(rng.below(dram.geometry().capacity()));
            if (!dram.canAccept(a, false))
                break;
            sink.issue(a, false, issued);
            ++issued;
        }
        dram.tick();
    }

    EXPECT_LT(dram.rowHitRate(), 0.4);
    EXPECT_LT(dram.busUtilization(), 0.7);
}

// ---------------------------------------------------------------------
// Command-order golden: one MemoryController driven directly with
// seeded random reads and writes. Every completion's (tag, cycle) and
// the controller's Stats are compared against
// tests/golden/controller_order.txt, so any change to the FR-FCFS
// choice, a timing rule or refresh shows up here before it reaches the
// system-level goldens. Each case runs twice: ticking every cycle, and
// skipping the cycles nextEventAt() proves idle (the §4c contract) —
// both must reproduce the golden exactly. Both drivers also run a
// controller at clock ratio 2, driven in core cycles: its completions
// and stats, in controller cycles, must match the same golden.
// Regenerate after an intended change with DX_REGEN_GOLDEN=1
// (tools/regen_golden.sh does this).
// ---------------------------------------------------------------------

namespace
{

struct TrafficMix
{
    const char *name;
    double writeFrac;   //!< share of requests that are writes
    double rowLocality; //!< chance to reuse the previous (bank, row)
    unsigned banks;     //!< distinct banks touched (0: all)
    unsigned seed;
};

constexpr TrafficMix kMixes[] = {
    {"stream", 0.05, 0.9, 0, 1},
    {"local", 0.25, 0.75, 0, 2},
    {"spread", 0.5, 0.1, 6, 3},
};

constexpr unsigned kGoldenRequests = 300;

struct OrderSink : public Completion<std::uint64_t>
{
    const MemoryController *ctrl = nullptr;
    std::ostringstream out;
    unsigned count = 0;

    void
    complete(const std::uint64_t &tag) override
    {
        out << (count % 12 ? " " : "\n") << tag << '@' << ctrl->now();
        ++count;
    }
};

struct Arrival
{
    Cycle at;
    MemRequest req;
};

MemoryController::Config
goldenConfig(unsigned ranks, unsigned queue)
{
    MemoryController::Config c;
    c.geom.channels = 1;
    c.geom.ranks = ranks;
    c.readQueueSize = queue;
    c.writeQueueSize = queue;
    c.writeHiWatermark = std::max(1u, queue * 3 / 4);
    c.writeLoWatermark = queue / 4;
    c.writeBurstMax = std::max(1u, queue / 2);
    // Refresh often enough that every case crosses several REFs.
    c.timings.refreshEnabled = true;
    c.timings.tREFI = 1500;
    c.timings.tRFC = 100;
    return c;
}

/** Seeded arrivals: busy phases of 300 cycles, idle phases of 400. */
std::vector<Arrival>
goldenTraffic(const MemoryController::Config &cfg, const TrafficMix &mix,
              std::uint64_t seed, OrderSink *sink)
{
    Rng rng(seed);
    const unsigned nBanks =
        mix.banks ? mix.banks : cfg.geom.banksPerChannel();
    const unsigned stride = cfg.geom.banksPerChannel() / nBanks;
    std::vector<Arrival> out;
    DramCoord last;
    Cycle at = 0;
    while (out.size() < kGoldenRequests) {
        ++at;
        if (at % 700 >= 300 || rng.real() >= 0.5)
            continue;
        DramCoord c = last;
        if (out.empty() || rng.real() >= mix.rowLocality) {
            const unsigned flat =
                static_cast<unsigned>(rng.below(nBanks)) * stride;
            c.bank = static_cast<std::uint16_t>(
                flat % cfg.geom.banksPerGroup);
            c.bankGroup = static_cast<std::uint16_t>(
                flat / cfg.geom.banksPerGroup % cfg.geom.bankGroups);
            c.rank = static_cast<std::uint16_t>(
                flat / cfg.geom.banksPerRank());
            c.row = static_cast<std::uint32_t>(rng.below(8));
        }
        c.column = static_cast<std::uint32_t>(
            rng.below(cfg.geom.linesPerRow()));
        last = c;
        MemRequest r;
        r.write = rng.real() < mix.writeFrac;
        r.tag = out.size();
        r.sink = sink;
        r.coord = c;
        out.push_back({at, r});
    }
    return out;
}

/**
 * Run one case on a controller at @p ratio core cycles per controller
 * cycle, ticked or skipped one core cycle at a time; returns the
 * golden text block for it.
 */
std::string
runOrderCase(unsigned ranks, unsigned queue, const TrafficMix &mix,
             bool skip, unsigned ratio)
{
    const MemoryController::Config cfg = goldenConfig(ranks, queue);
    MemoryController ctrl(cfg, 0, ratio);
    OrderSink sink;
    sink.ctrl = &ctrl;
    const std::uint64_t seed = 1000 * ranks + 10 * queue + mix.seed;
    const std::vector<Arrival> arrivals =
        goldenTraffic(cfg, mix, seed, &sink);

    // Reads and writes wait in separate source FIFOs, so a full read
    // buffer does not hold back writes (and the other way round).
    std::deque<const Arrival *> src[2];
    for (const Arrival &a : arrivals)
        src[a.req.write].push_back(&a);

    const Cycle limit = 10'000'000;
    Cycle core = 0; // the driver's clock, in core cycles
    while (!(src[0].empty() && src[1].empty() && ctrl.drained()) &&
           ctrl.now() < limit) {
        Cycle nextArrival = kNeverCycle;
        for (auto &q : src) {
            while (!q.empty() && q.front()->at <= ctrl.now() &&
                   ctrl.canAccept(q.front()->req.write)) {
                ctrl.enqueue(q.front()->req);
                q.pop_front();
            }
            if (!q.empty() && q.front()->at > ctrl.now())
                nextArrival = std::min(nextArrival, q.front()->at);
        }
        // Controller cycle c starts on core cycle c * ratio.
        if (skip && ctrl.nextEventAt() > core + 1) {
            const Cycle until = std::min(
                ctrl.nextEventAt() - 1,
                nextArrival == kNeverCycle ? kNeverCycle
                                           : nextArrival * ratio);
            ctrl.skipCycles(until - core);
            core = until;
        } else {
            ctrl.tick();
            ++core;
        }
    }
    EXPECT_LT(ctrl.now(), limit) << "controller did not drain";

    const auto &s = ctrl.stats();
    std::ostringstream os;
    os << "case ranks=" << ranks << " queue=" << queue
       << " mix=" << mix.name << " completions=" << sink.count << '\n'
       << "stats cycles=" << s.cycles.value()
       << " reads=" << s.readsServed.value()
       << " writes=" << s.writesServed.value()
       << " hits=" << s.rowHits.value()
       << " misses=" << s.rowMisses.value()
       << " conflicts=" << s.rowConflicts.value()
       << " act=" << s.actCommands.value()
       << " pre=" << s.preCommands.value()
       << " ref=" << s.refCommands.value()
       << " bus=" << s.busBusyCycles.value()
       << " occupancy=" << s.occupancyAccum
       << sink.out.str() << '\n';
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

TEST(ControllerGolden, CommandOrderMatchesGolden)
{
    const std::filesystem::path file =
        std::filesystem::path(DX_SOURCE_DIR) / "tests" / "golden" /
        "controller_order.txt";

    for (const unsigned ratio : {1u, 2u}) {
        for (const bool skip : {false, true}) {
            std::string actual;
            for (const unsigned ranks : {1u, 2u, 4u})
                for (const unsigned queue : {1u, 4u, 32u})
                    for (const TrafficMix &mix : kMixes)
                        actual +=
                            runOrderCase(ranks, queue, mix, skip, ratio);

            const char *regen = std::getenv("DX_REGEN_GOLDEN");
            if (ratio == 1 && !skip && regen && regen[0] == '1') {
                std::ofstream(file) << actual;
                continue;
            }
            std::ifstream in(file);
            ASSERT_TRUE(in) << "missing golden file " << file;
            std::ostringstream want;
            want << in.rdbuf();
            EXPECT_TRUE(want.str() == actual)
                << (skip ? "skipping" : "ticking")
                << " driver at clock ratio " << ratio
                << " diverged from the golden command order at "
                << firstDiff(want.str(), actual);
        }
    }
}
