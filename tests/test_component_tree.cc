/**
 * @file
 * Component-tree and stat-registry tests: topology construction for
 * the baseline / DX100 / DMP configurations, the port-connectivity
 * audit (every request-port slot bound exactly once), stat-path
 * uniqueness, SystemConfig::validate() misuse reporting, and a
 * DX_STATS_JSON round trip (dump, reparse, compare every leaf against
 * the live registry).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/component.hh"
#include "sim/stat_registry.hh"
#include "sim/system.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;

namespace dx::sim
{

/** Reads System's private tick-order walk (System befriends it). */
struct TickOrderProbe
{
    static std::vector<std::string>
    paths(const System &sys)
    {
        std::vector<std::string> out;
        sys.forEachInTickOrder(
            [&out](const auto &c) { out.push_back(c.path()); });
        return out;
    }
};

} // namespace dx::sim

namespace
{

const Component *
childNamed(const Component &c, const std::string &name)
{
    for (const Component *ch : c.children()) {
        if (ch->name() == name)
            return ch;
    }
    return nullptr;
}

std::vector<std::string>
childNames(const Component &c)
{
    std::vector<std::string> names;
    for (const Component *ch : c.children())
        names.push_back(ch->name());
    return names;
}

/**
 * Minimal recursive-descent parser for the subset of JSON the registry
 * emits: objects of objects with numeric leaves. Flattens to dotted
 * (path, value) pairs in document order.
 */
struct FlatJson
{
    std::vector<std::pair<std::string, double>> leaves;
};

class MiniJsonParser
{
  public:
    explicit MiniJsonParser(const std::string &text) : s_(text) {}

    FlatJson
    parse()
    {
        FlatJson out;
        skipWs();
        object("", out);
        skipWs();
        EXPECT_EQ(pos_, s_.size()) << "trailing bytes after document";
        return out;
    }

  private:
    void
    object(const std::string &prefix, FlatJson &out)
    {
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            const std::string key = stringLit();
            skipWs();
            expect(':');
            skipWs();
            const std::string path =
                prefix.empty() ? key : prefix + "." + key;
            if (peek() == '{') {
                object(path, out);
            } else {
                out.leaves.emplace_back(path, number());
            }
            skipWs();
            if (peek() == ',') {
                ++pos_;
                skipWs();
                continue;
            }
            expect('}');
            return;
        }
    }

    std::string
    stringLit()
    {
        expect('"');
        std::string out;
        while (peek() != '"')
            out.push_back(s_[pos_++]);
        ++pos_;
        return out;
    }

    double
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        EXPECT_GT(pos_, start) << "expected a number at offset " << start;
        return std::strtod(s_.substr(start, pos_ - start).c_str(),
                           nullptr);
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        ASSERT_EQ(peek(), c) << "at offset " << pos_;
        ++pos_;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Every request-port slot in the tree must be bound. */
void
auditPorts(const Component &root)
{
    forEachComponent(root, [](const Component &c) {
        for (const PortRef &p : c.portRefs()) {
            EXPECT_TRUE(p.bound)
                << c.path() << " port '" << p.name << "' unbound";
        }
    });
}

} // namespace

TEST(ComponentTree, BaselineTopology)
{
    System sys(SystemConfig::baseline(2));
    EXPECT_EQ(sys.name(), "system");
    EXPECT_EQ(sys.path(), "system");

    const std::vector<std::string> names = childNames(sys);
    EXPECT_EQ(names,
              (std::vector<std::string>{"core0", "core1", "llc",
                                        "dram"}));

    EXPECT_EQ(sys.core(0).path(), "system.core0");
    EXPECT_EQ(sys.l1(0).path(), "system.core0.l1d");
    EXPECT_EQ(sys.l2(1).path(), "system.core1.l2");
    EXPECT_EQ(sys.llc().path(), "system.llc");
    EXPECT_EQ(sys.dram().path(), "system.dram");
    EXPECT_EQ(sys.dram().channel(0).path(), "system.dram.ch0");
    EXPECT_EQ(sys.dram().channel(1).path(), "system.dram.ch1");

    // Baseline: no accelerator, no DMP under the L1s.
    EXPECT_EQ(childNamed(sys, "dx100"), nullptr);
    EXPECT_EQ(childNamed(sys.l1(0), "dmp"), nullptr);

    auditPorts(sys);
}

TEST(ComponentTree, Dx100Topology)
{
    System sys(SystemConfig::withDx100(2));
    ASSERT_NE(sys.dx100(0), nullptr);
    EXPECT_EQ(sys.dx100(0)->path(), "system.dx100");
    auditPorts(sys);
}

TEST(ComponentTree, MultiInstanceDx100Names)
{
    const SystemConfig cfg = SystemConfig::withDx100(4, 2);
    System sys(cfg);
    ASSERT_NE(sys.dx100(1), nullptr);
    EXPECT_EQ(sys.dx100(0)->path(), "system.dx100_0");
    EXPECT_EQ(sys.dx100(1)->path(), "system.dx100_1");
    auditPorts(sys);

    // Cores split into contiguous blocks, one block per instance.
    for (unsigned c = 0; c < cfg.cores; ++c)
        EXPECT_EQ(cfg.dx100InstanceFor(c), c / 2) << "core " << c;

    // The run-level coalescing factor aggregates every instance: total
    // words over total columns, not the last instance's own ratio.
    // 1009 words split unevenly, so the two instances coalesce
    // differently (about 15.3 and 14.8 words per column).
    wl::GatherMicro w(wl::GatherMicro::Mode::kFull, 1009);
    w.init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        kernels.push_back(w.makeKernel(sys, c, true));
        sys.setKernel(c, kernels.back().get());
    }
    const RunStats r = sys.run();
    ASSERT_TRUE(w.verify(sys));

    std::uint64_t words = 0;
    std::uint64_t columns = 0;
    for (unsigned i = 0; i < 2; ++i) {
        const auto &s = sys.dx100(i)->stats();
        EXPECT_GT(s.indirectColumns.value(), 0u) << "instance " << i;
        words += s.indirectWords.value();
        columns += s.indirectColumns.value();
    }
    EXPECT_DOUBLE_EQ(r.coalescingFactor,
                     static_cast<double>(words) / columns);
    EXPECT_NE(sys.dx100(1)->stats().coalescingFactor(),
              r.coalescingFactor);
}

TEST(ComponentTree, DmpTopology)
{
    System sys(SystemConfig::withDmp(2));
    const Component *dmp = childNamed(sys.l1(0), "dmp");
    ASSERT_NE(dmp, nullptr);
    EXPECT_EQ(dmp->path(), "system.core0.l1d.dmp");
    auditPorts(sys);
}

// The one component walk visits cores, L1s, L2s, the LLC, every DX100
// instance and DRAM, each exactly once, in that order.
TEST(ComponentTree, TickOrder)
{
    const auto expected = [](unsigned cores, unsigned channels,
                             std::vector<std::string> dxs) {
        std::vector<std::string> order;
        for (const char *level : {"", ".l1d", ".l2"}) {
            for (unsigned c = 0; c < cores; ++c)
                order.push_back("system.core" + std::to_string(c) +
                                level);
        }
        order.push_back("system.llc");
        for (std::string &d : dxs)
            order.push_back("system." + d);
        for (unsigned c = 0; c < channels; ++c)
            order.push_back("system.dram.ch" + std::to_string(c));
        return order;
    };
    EXPECT_EQ(TickOrderProbe::paths(System(SystemConfig::withDx100(4, 2))),
              expected(4, 2, {"dx100_0", "dx100_1"}));
    EXPECT_EQ(TickOrderProbe::paths(System(SystemConfig::withDmp(2))),
              expected(2, 2, {}));
}

TEST(ComponentTree, StatPathsUniqueAndComplete)
{
    System sys(SystemConfig::withDx100(2));
    const auto paths = sys.statRegistry().paths();
    const std::set<std::string> unique(paths.begin(), paths.end());
    EXPECT_EQ(unique.size(), paths.size());

    for (const char *expected :
         {"system.cycles", "system.core0.committedOps",
          "system.core0.lsq.occupancy",
          "system.core1.l1d.demandMisses", "system.core0.l2.writebacks",
          "system.llc.demandAccesses", "system.dx100.rowtable.hits",
          "system.dx100.rowtable.coalescingFactor",
          "system.dx100.opcode.ild", "system.dx100.tlb.hits",
          "system.dx100.tlb.misses", "system.dram.busUtilization",
          "system.dram.ch0.rowHits", "system.dram.ch1.refCommands"}) {
        EXPECT_TRUE(sys.statRegistry().has(expected))
            << "missing stat path " << expected;
    }
}

TEST(ComponentTree, DmpStatsRegistered)
{
    System sys(SystemConfig::withDmp(2));
    EXPECT_TRUE(sys.statRegistry().has(
        "system.core1.l1d.dmp.indirectPrefetches"));
}

TEST(ComponentTree, ValidateRejectsBadConfigs)
{
    ScopedFatalThrow guard;

    SystemConfig zeroCores;
    zeroCores.cores = 0;
    EXPECT_THROW(zeroCores.validate(), FatalError);

    SystemConfig badSets;
    badSets.llc.sizeBytes = 3 * 1024 * 1024; // 6144 sets: not pow2
    badSets.llc.assoc = 8;
    EXPECT_THROW(badSets.validate(), FatalError);

    SystemConfig indivisible;
    indivisible.llc.assoc = 24; // 10 MB not divisible by 24 ways
    EXPECT_THROW(indivisible.validate(), FatalError);

    SystemConfig conflict = SystemConfig::withDx100();
    conflict.dmp = true;
    EXPECT_THROW(conflict.validate(), FatalError);

    SystemConfig tooManyInstances = SystemConfig::withDx100(2);
    tooManyInstances.dx100Instances = 3;
    EXPECT_THROW(tooManyInstances.validate(), FatalError);

    SystemConfig badChannels;
    badChannels.dram.ctrl.geom.channels = 3;
    EXPECT_THROW(badChannels.validate(), FatalError);

    SystemConfig tooManyBanks; // 8 ranks x 4 x 4 = 128 banks a channel
    tooManyBanks.dram.ctrl.geom.ranks = 8;
    EXPECT_THROW(tooManyBanks.validate(), FatalError);
    SystemConfig fourRanks; // 64 banks: the widest channel accepted
    fourRanks.dram.ctrl.geom.ranks = 4;
    fourRanks.validate();

    // Queues that can never admit a request hang the run at the cycle
    // limit instead of failing up front.
    SystemConfig noReadQueue = SystemConfig::baseline();
    noReadQueue.dram.ctrl.readQueueSize = 0;
    EXPECT_THROW(noReadQueue.validate(), FatalError);
    SystemConfig noWriteQueue = SystemConfig::baseline();
    noWriteQueue.dram.ctrl.writeQueueSize = 0;
    EXPECT_THROW(noWriteQueue.validate(), FatalError);
    SystemConfig noSpdQueue = SystemConfig::withDx100();
    noSpdQueue.dx.spdPortQueue = 0;
    EXPECT_THROW(noSpdQueue.validate(), FatalError);

    // A zero-width core port or accelerator unit wedges the run, and a
    // zero-entry TLB has no room for the page it just installed.
    for (unsigned cpu::Core::Config::*field :
         {&cpu::Core::Config::loadPorts, &cpu::Core::Config::storeDrain}) {
        SystemConfig zero;
        zero.core.*field = 0;
        EXPECT_THROW(zero.validate(), FatalError);
    }
    for (unsigned dx100::Dx100Config::*field :
         {&dx100::Dx100Config::fillRate,
          &dx100::Dx100Config::requestTableSize,
          &dx100::Dx100Config::respPerCycle,
          &dx100::Dx100Config::rowsPerSlice,
          &dx100::Dx100Config::dispatchWindow,
          &dx100::Dx100Config::tileElems,
          &dx100::Dx100Config::tlbEntries}) {
        SystemConfig zero = SystemConfig::withDx100();
        zero.dx.*field = 0;
        EXPECT_THROW(zero.validate(), FatalError);
    }

    // Write watermarks must satisfy lo < hi <= writeQueueSize.
    SystemConfig hiAboveQueue;
    hiAboveQueue.dram.ctrl.writeHiWatermark =
        hiAboveQueue.dram.ctrl.writeQueueSize + 1;
    EXPECT_THROW(hiAboveQueue.validate(), FatalError);
    SystemConfig loNotBelowHi;
    loNotBelowHi.dram.ctrl.writeLoWatermark =
        loNotBelowHi.dram.ctrl.writeHiWatermark;
    EXPECT_THROW(loNotBelowHi.validate(), FatalError);

    // The queue sweep of bench/table_ablation stays valid.
    for (unsigned q : {8u, 16u, 32u, 64u, 128u}) {
        SystemConfig swept;
        swept.dram.ctrl.readQueueSize = q;
        swept.dram.ctrl.writeQueueSize = q;
        swept.dram.ctrl.writeHiWatermark = 3 * q / 4;
        swept.dram.ctrl.writeLoWatermark = q / 4;
        swept.validate();
    }

    // DMP tables must be non-empty, the pattern table must fit the
    // prefetcher's 64-bit slot masks, and a pattern must need at least
    // one confirmation. Without dmp the fields are not used.
    for (auto mutate : std::initializer_list<
             void (*)(prefetch::IndirectPrefetcher::Config &)>{
             [](auto &p) { p.streamTableSize = 0; },
             [](auto &p) { p.patternTableSize = 0; },
             [](auto &p) {
                 p.patternTableSize =
                     prefetch::IndirectPrefetcher::kMaxPatterns + 1;
             },
             [](auto &p) { p.confidenceThreshold = 0; },
             [](auto &p) { p.confidenceThreshold = -1; }}) {
        SystemConfig bad = SystemConfig::withDmp();
        mutate(bad.dmpCfg);
        EXPECT_THROW(bad.validate(), FatalError);
        bad.dmp = false;
        bad.validate();
    }
    SystemConfig widest = SystemConfig::withDmp();
    widest.dmpCfg.patternTableSize =
        prefetch::IndirectPrefetcher::kMaxPatterns;
    widest.dmpCfg.confidenceThreshold = 1;
    widest.validate();

    // The stock presets must all pass.
    SystemConfig::baseline(2).validate();
    SystemConfig::baseline(8).validate();
    SystemConfig::withDx100(4, 2).validate();
    SystemConfig::withDmp(4).validate();
}

// validate() fuzz: seeded random values, zeros included, in the core,
// cache, DRAM, DX100 and (on a DMP system) prefetcher fields. A config
// is either refused by validate() (a dx_fatal) or it runs a small
// gather to completion under a fixed cycle bound and verifies. A crash,
// an assert, a later dx_fatal or the cycle limit is a model or
// validate() bug.
TEST(ComponentTree, ValidateFuzz)
{
    ScopedFatalThrow guard;
    unsigned accepted = 0;
    unsigned tileRefusals = 0;
    for (unsigned seed = 0; seed < 300; ++seed) {
        Rng rng(seed);
        const unsigned cores = 1 + static_cast<unsigned>(rng.below(4));
        const bool dx = rng.below(2) != 0;
        const bool dmp = !dx && rng.below(2) != 0;
        SystemConfig cfg = dx    ? SystemConfig::withDx100(cores)
                           : dmp ? SystemConfig::withDmp(cores)
                                 : SystemConfig::baseline(cores);
        cpu::Core::Config &c = cfg.core;
        mem::MemoryController::Config &d = cfg.dram.ctrl;
        mem::DramTimings &t = d.timings;
        dx100::Dx100Config &x = cfg.dx;
        std::vector<unsigned *> fields = {
            &c.width, &c.robSize, &c.lqSize, &c.sqSize, &c.loadPorts,
            &c.storeDrain, &c.mmioLatency, &c.pollInterval,
            &c.pollInstrCost, &d.readQueueSize, &d.writeQueueSize,
            &d.writeHiWatermark, &d.writeLoWatermark, &d.writeBurstMax,
            &d.geom.channels, &d.geom.ranks, &d.geom.bankGroups,
            &d.geom.banksPerGroup, &d.geom.rowBytes, &d.geom.rows,
            &cfg.dram.clockRatio, &t.tRCD, &t.tRP, &t.tRAS, &t.tRTP,
            &t.tWR, &t.tCL, &t.tCWL, &t.tBL, &t.tCCD_S, &t.tCCD_L,
            &t.tRRD_S, &t.tRRD_L, &t.tFAW, &t.tWTR_S, &t.tWTR_L, &t.tRTW,
            &t.tREFI, &t.tRFC, &x.numTiles, &x.tileElems, &x.numRegs,
            &x.fillRate, &x.aluLanes, &x.requestTableSize,
            &x.rowsPerSlice, &x.colsPerRow, &x.respPerCycle,
            &x.rangeRate, &x.dispatchWindow, &x.spdReadLatency,
            &x.spdPortQueue, &x.tlbEntries, &x.tlbMissPenalty};
        for (cache::Cache::Config *cc : {&cfg.l1, &cfg.l2, &cfg.llc}) {
            for (unsigned *f : {&cc->assoc, &cc->latency, &cc->mshrs,
                                &cc->targetsPerMshr, &cc->queueSize,
                                &cc->width})
                fields.push_back(f);
        }
        prefetch::IndirectPrefetcher::Config &p = cfg.dmpCfg;
        auto threshold = static_cast<unsigned>(p.confidenceThreshold);
        if (dmp) {
            for (unsigned *f : {&p.streamTableSize, &p.patternTableSize,
                                &p.recentValues, &p.distance, &p.queueMax,
                                &p.streamDegree, &threshold})
                fields.push_back(f);
        }
        // One to three fields each take zero, a tiny value, or up to
        // twice their default.
        for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
            unsigned &v = *fields[rng.below(fields.size())];
            switch (rng.below(3)) {
              case 0:
                v = 0;
                break;
              case 1:
                v = 1 + static_cast<unsigned>(rng.below(4));
                break;
              default:
                v = 1 + static_cast<unsigned>(rng.below(2 * v + 1));
                break;
            }
        }
        if (rng.below(8) == 0)
            cfg.llc.sizeBytes /= 1 + rng.below(4);
        p.confidenceThreshold = static_cast<int>(threshold);

        try {
            cfg.validate();
        } catch (const FatalError &) {
            continue; // refused up front, with a message
        }
        // Past validate(), building, loading and running must all
        // succeed: any dx_fatal from here on is a validate() gap, except
        // the runtime refusing a kernel that needs more scratchpad tiles
        // than the config has, which is the workload's demand, not the
        // config's. Those are counted and bounded below.
        ++accepted;
        SCOPED_TRACE("seed " + std::to_string(seed));
        wl::GatherMicro w(wl::GatherMicro::Mode::kSpd, 512);
        std::vector<std::unique_ptr<cpu::Kernel>> kernels;
        System sys(cfg);
        try {
            w.init(sys);
            for (unsigned i = 0; i < cores; ++i) {
                kernels.push_back(w.makeKernel(sys, i, dx));
                sys.setKernel(i, kernels.back().get());
            }
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), "out of scratchpad tiles");
            ++tileRefusals;
            continue;
        }
        EXPECT_NO_THROW(sys.run(Cycle{4} << 20));
        EXPECT_TRUE(w.verify(sys));
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_LE(tileRefusals, 10u);
    RecordProperty("accepted", static_cast<int>(accepted));
    RecordProperty("tile_refusals", static_cast<int>(tileRefusals));
}

TEST(ComponentTree, StatsJsonRoundTrip)
{
    System sys(SystemConfig::withDx100(2));
    // Put some age on the clock and per-cycle integrals so the dump is
    // not all zeros.
    for (int i = 0; i < 500; ++i)
        sys.tick();

    const std::string file =
        ::testing::TempDir() + "component_tree_stats.json";
    sys.statRegistry().writeJsonFile(file);

    std::ifstream in(file);
    ASSERT_TRUE(in) << "dump file missing: " << file;
    std::ostringstream text;
    text << in.rdbuf();

    const std::string body = text.str();
    MiniJsonParser parser(body);
    const FlatJson flat = parser.parse();

    // Every registry entry appears exactly once, in registration
    // order, and parses back to the value the live registry reports.
    const auto paths = sys.statRegistry().paths();
    ASSERT_EQ(flat.leaves.size(), paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
        EXPECT_EQ(flat.leaves[i].first, paths[i]);
        EXPECT_DOUBLE_EQ(flat.leaves[i].second,
                         sys.statRegistry().value(paths[i]))
            << "mismatch at " << paths[i];
    }

    EXPECT_EQ(sys.statRegistry().intValue("system.cycles"),
              sys.now());
    std::remove(file.c_str());
}
