/**
 * @file
 * Runtime API and accelerator-unit tests: resource allocation, the
 * TLB, the DMP prefetcher's differential matching, the region
 * directory, tile-size variation, and multi-instance correctness.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dx100/region_directory.hh"
#include "dx100/tlb.hh"
#include "prefetch/indirect_prefetcher.hh"
#include "sim/experiment.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

TEST(Runtime, TileAndRegisterAllocationExhausts)
{
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    std::vector<unsigned> tiles;
    for (unsigned i = 0; i < sys.dx100(0)->config().numTiles; ++i)
        tiles.push_back(rt->allocTile());
    // All distinct.
    std::sort(tiles.begin(), tiles.end());
    EXPECT_EQ(std::unique(tiles.begin(), tiles.end()), tiles.end());
    // Freeing returns capacity.
    rt->freeTile(tiles[3]);
    EXPECT_EQ(rt->allocTile(), tiles[3]);
}

TEST(Tlb, HugePageRegistrationCoversRegion)
{
    dx100::Tlb tlb(256, 200);
    tlb.installRange(0x40000000, 8 << 20); // 8 MiB = 4 huge pages
    EXPECT_EQ(tlb.lookup(0x40000000), 0u);
    EXPECT_EQ(tlb.lookup(0x40000000 + (7 << 20)), 0u);
    EXPECT_EQ(tlb.misses(), 0u);

    // Untransferred page: one PTE-walk penalty, then resident.
    EXPECT_EQ(tlb.lookup(0x80000000), 200u);
    EXPECT_EQ(tlb.lookup(0x80000000 + 64), 0u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(RegionDirectory, SingleWriterTransfers)
{
    dx100::RegionDirectory dir(100);
    // Instance 0 acquires cold region immediately.
    EXPECT_TRUE(dir.tryAcquireWrite(0, 0x1000, 10));
    // Instance 1 cannot while 0 has a write in flight.
    EXPECT_FALSE(dir.tryAcquireWrite(1, 0x1000, 11));
    dir.releaseWrite(0, 0x1000);
    // Transfer starts; not ready until the latency elapses.
    EXPECT_FALSE(dir.tryAcquireWrite(1, 0x1000, 12));
    EXPECT_FALSE(dir.tryAcquireWrite(1, 0x1000, 50));
    EXPECT_TRUE(dir.tryAcquireWrite(1, 0x1000, 200));
    EXPECT_EQ(dir.transfers(), 1u);
    // Same-owner re-acquire is free.
    dir.releaseWrite(1, 0x1000);
    EXPECT_TRUE(dir.tryAcquireWrite(1, 0x1000, 201));
}

TEST(DmpPrefetcher, LearnsIndirectPatternAndPrefetches)
{
    SimMemory mem;
    const Addr bBase = 0x10000;
    const Addr aBase = 0x400000;
    // B[i] holds indices; A[B[i]] are the dependent accesses.
    std::uint32_t idx[64];
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        idx[i] = static_cast<std::uint32_t>(rng.below(4096));
        mem.write<std::uint32_t>(bBase + static_cast<Addr>(i) * 4,
                                 idx[i]);
    }

    prefetch::IndirectPrefetcher::Config cfg;
    prefetch::IndirectPrefetcher pf(cfg, &mem);

    // Feed the observation stream: strided index loads + misses at
    // aBase + idx*4.
    for (int i = 0; i < 40; ++i) {
        cache::CacheReq load;
        load.addr = bBase + static_cast<Addr>(i) * 4;
        load.pc = 11;
        load.value = idx[i];
        pf.observe(load, true);

        cache::CacheReq miss;
        miss.addr = aBase + Addr{idx[i]} * 4;
        miss.pc = 12;
        pf.observe(miss, true);
    }
    EXPECT_GE(pf.stats().patternsLearned, 1u);
    EXPECT_GT(pf.stats().indirectPrefetches, 0u);

    // Prefetched lines must hit future dependent accesses: collect the
    // queue and check against upcoming A[B[i+d]] lines.
    std::set<Addr> targets;
    for (int i = 0; i < 64; ++i)
        targets.insert(lineAlign(aBase + Addr{idx[i]} * 4));
    Addr line;
    unsigned useful = 0, total = 0;
    while (pf.nextPrefetch(line)) {
        ++total;
        // Useful = a dependent A[B[i]] line or an index-stream line.
        const bool indexStream =
            line >= bBase && line < bBase + 64 * 4 + 4096;
        useful += (targets.count(line) || indexStream) ? 1 : 0;
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(useful) / total, 0.5);
}

TEST(TileSize, SmallTilesStillCorrect)
{
    for (unsigned t : {1024u, 4096u}) {
        SystemConfig cfg = SystemConfig::withDx100();
        cfg.dx.tileElems = t;
        GatherMicro w(GatherMicro::Mode::kFull, 1 << 14);
        System sys(cfg);
        w.init(sys);
        std::vector<std::unique_ptr<cpu::Kernel>> ks;
        for (unsigned c = 0; c < sys.cores(); ++c) {
            ks.push_back(w.makeKernel(sys, c, true));
            sys.setKernel(c, ks.back().get());
        }
        sys.run();
        EXPECT_TRUE(w.verify(sys)) << "tile " << t;
    }
}

TEST(MultiInstance, TwoInstancesEightCoresCorrect)
{
    SystemConfig cfg = SystemConfig::withDx100(8, 2);
    RmwMicro w(1 << 15, true);
    System sys(cfg);
    w.init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> ks;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        ks.push_back(w.makeKernel(sys, c, true));
        sys.setKernel(c, ks.back().get());
    }
    const RunStats s = sys.run();
    EXPECT_TRUE(w.verify(sys));
    EXPECT_GT(s.dxInstructions, 0u);
    // Both instances were used (cores 0-3 -> 0, 4-7 -> 1).
    EXPECT_GT(sys.dx100(1)->stats().instructionsRetired.value(), 0u);
}
