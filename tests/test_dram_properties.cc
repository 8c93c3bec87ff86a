/**
 * @file
 * Property tests for the DRAM controller: a command-trace checker
 * verifies that every issued command respects the DDR4 timing
 * distances under randomized traffic, and conservation properties
 * (every accepted request is served exactly once) hold across
 * parameterized traffic mixes.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::mem;

namespace
{

struct TrafficParams
{
    const char *name;
    unsigned readPct;     //!< percentage of reads
    unsigned regionBytes; //!< address span (locality knob)
    unsigned ratePer8;    //!< injection attempts per 8 core cycles
};

class TrafficTest : public ::testing::TestWithParam<TrafficParams>
{
};

struct CountingSink : public Completion<std::uint64_t>
{
    std::map<std::uint64_t, bool> isWrite; //!< every tag issued
    std::map<std::uint64_t, unsigned> reads;
    std::map<std::uint64_t, unsigned> writes;

    void
    complete(const std::uint64_t &tag) override
    {
        if (isWrite.at(tag))
            ++writes[tag];
        else
            ++reads[tag];
    }
};

} // namespace

TEST_P(TrafficTest, EveryAcceptedRequestServedExactlyOnce)
{
    const TrafficParams p = GetParam();
    DramSystem::Config cfg;
    DramSystem dram(cfg);
    CountingSink sink;
    Rng rng(p.readPct * 7 + 13);

    std::uint64_t nextTag = 0;
    std::uint64_t expectedReads = 0;
    std::uint64_t writesIssued = 0;

    for (Cycle t = 0; t < 120000; ++t) {
        for (unsigned k = 0; k < p.ratePer8; ++k) {
            if (rng.below(8) != 0)
                continue;
            const bool write = rng.below(100) >= p.readPct;
            const Addr a = lineAlign(rng.below(p.regionBytes));
            if (!dram.canAccept(a, write))
                continue;
            sink.isWrite[nextTag] = write;
            dram.access(a, write, nextTag++, write ? nullptr : &sink);
            if (write)
                ++writesIssued;
            else
                ++expectedReads;
        }
        dram.tick();
    }
    for (Cycle t = 0; t < 4'000'000 && !dram.drained(); ++t)
        dram.tick();
    ASSERT_TRUE(dram.drained()) << "controller failed to drain";

    EXPECT_EQ(sink.reads.size(), expectedReads);
    for (const auto &[tag, count] : sink.reads)
        EXPECT_EQ(count, 1u) << "read tag " << tag;

    std::uint64_t writesServed = 0;
    std::uint64_t readsServed = 0;
    for (unsigned c = 0; c < dram.channels(); ++c) {
        writesServed += dram.channel(c).stats().writesServed.value();
        readsServed += dram.channel(c).stats().readsServed.value();
    }
    EXPECT_EQ(writesServed, writesIssued);
    EXPECT_EQ(readsServed, expectedReads);
}

TEST_P(TrafficTest, CommandAccountingIsConsistent)
{
    const TrafficParams p = GetParam();
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    DramSystem dram(cfg);
    Rng rng(p.regionBytes);

    std::uint64_t issued = 0;
    for (Cycle t = 0; t < 60000; ++t) {
        const bool write = rng.below(100) >= p.readPct;
        const Addr a = lineAlign(rng.below(p.regionBytes));
        if (dram.canAccept(a, write)) {
            dram.access(a, write, issued++, nullptr);
        }
        dram.tick();
    }
    for (Cycle t = 0; t < 4'000'000 && !dram.drained(); ++t)
        dram.tick();
    ASSERT_TRUE(dram.drained());

    for (unsigned c = 0; c < dram.channels(); ++c) {
        const auto &s = dram.channel(c).stats();
        // Without refresh, every ACT eventually pairs with a PRE (or
        // leaves a row open at the end) and every column command is a
        // hit or a miss — never both.
        EXPECT_LE(s.preCommands.value(), s.actCommands.value());
        EXPECT_GE(s.preCommands.value() + 16, s.actCommands.value());
        EXPECT_EQ(s.rowHits.value() + s.rowMisses.value(),
                  s.readsServed.value() + s.writesServed.value());
        // Misses require activations.
        EXPECT_LE(s.rowMisses.value(), s.actCommands.value());
        // Data-bus occupancy = tBL per column command.
        EXPECT_EQ(s.busBusyCycles.value(),
                  (s.readsServed.value() + s.writesServed.value()) *
                      cfg.ctrl.timings.tBL);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, TrafficTest,
    ::testing::Values(
        TrafficParams{"read_only_hot", 100, 1 << 16, 8},
        TrafficParams{"read_only_wide", 100, 64 << 20, 8},
        TrafficParams{"mixed_wide", 70, 64 << 20, 8},
        TrafficParams{"write_heavy", 30, 16 << 20, 8},
        TrafficParams{"mixed_trickle", 50, 8 << 20, 1}),
    [](const ::testing::TestParamInfo<TrafficParams> &info) {
        return info.param.name;
    });

TEST(DramTiming, SameBankActToActRespectsTrc)
{
    // Two conflicting rows in one bank: the second read's completion
    // must be at least tRC after the first row's activation window.
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    DramSystem dram(cfg);
    const AddressMap &map = dram.addressMap();

    struct Sink : public Completion<std::uint64_t>
    {
        std::vector<Cycle> done;
        std::vector<unsigned> channelOf; //!< indexed by issued tag
        DramSystem *d = nullptr;
        void
        complete(const std::uint64_t &tag) override
        {
            done.push_back(d->channel(channelOf.at(tag)).now());
        }
    } sink;
    sink.d = &dram;

    DramCoord c0{};
    DramCoord c1{};
    c1.row = 1;
    sink.channelOf = {c0.channel, c1.channel};
    dram.access(map.compose(c0), false, 0, &sink);
    dram.access(map.compose(c1), false, 1, &sink);
    for (Cycle t = 0; t < 100000 && !dram.drained(); ++t)
        dram.tick();
    ASSERT_EQ(sink.done.size(), 2u);
    const auto &tm = cfg.ctrl.timings;
    // Second access needs: first RD done enough for tRTP+tRP+tRCD.
    EXPECT_GE(sink.done[1] - sink.done[0], tm.tRTP + tm.tRP + tm.tRCD);
}

TEST(DramTiming, FourActivateWindowLimitsActivationBursts)
{
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    DramSystem dram(cfg);
    const AddressMap &map = dram.addressMap();

    // 8 reads to 8 distinct banks of channel 0: all need ACTs.
    unsigned issued = 0;
    for (unsigned bg = 0; bg < 4 && issued < 8; ++bg) {
        for (unsigned ba = 0; ba < 2 && issued < 8; ++ba) {
            DramCoord c{};
            c.bankGroup = static_cast<std::uint16_t>(bg);
            c.bank = static_cast<std::uint16_t>(ba);
            dram.access(map.compose(c), false, issued++, nullptr);
        }
    }
    Cycle elapsed = 0;
    while (!dram.drained()) {
        dram.tick();
        ++elapsed;
    }
    // 8 ACTs need two tFAW windows at minimum (in controller cycles;
    // 2 core cycles per controller cycle).
    EXPECT_GE(elapsed / 2, cfg.ctrl.timings.tFAW);
}
