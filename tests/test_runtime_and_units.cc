/**
 * @file
 * Runtime API and accelerator-unit tests: resource allocation, the
 * TLB, the DMP prefetcher's differential matching and its
 * prefetch-order golden, the region directory, tile-size variation,
 * and multi-instance correctness.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>

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

TEST(DmpPrefetcherDeathTest, RejectsTablesItCannotIndex)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SimMemory mem;
    for (auto mutate : {+[](prefetch::IndirectPrefetcher::Config &c) {
                            c.patternTableSize =
                                prefetch::IndirectPrefetcher::kMaxPatterns +
                                1;
                        },
                        +[](prefetch::IndirectPrefetcher::Config &c) {
                            c.confidenceThreshold = -4;
                        }}) {
        prefetch::IndirectPrefetcher::Config cfg;
        mutate(cfg);
        EXPECT_DEATH(prefetch::IndirectPrefetcher(cfg, &mem),
                     "config out of range");
    }
}

// ---------------------------------------------------------------------
// Prefetch-order golden: the DMP driven with several index streams
// (4- and 8-byte elements, ascending and descending, PCs that share a
// stream-table slot), their dependent misses, and noise misses whose
// bases are often negative. The noise fills the pattern table, so the
// decrement and replace paths run alongside matching and triggering.
// Every prefetch line (with the step that popped it) and the three
// stats are compared against tests/golden/dmp_order.txt. Regenerate
// after an intended change with DX_REGEN_GOLDEN=1
// (tools/regen_golden.sh does this).
// ---------------------------------------------------------------------

namespace
{

struct DmpCase
{
    unsigned streamTableSize, patternTableSize, recentValues, queueMax;
    int confidenceThreshold;
    unsigned steps;
    std::uint64_t seed;
};

constexpr DmpCase kDmpCases[] = {
    {16, 16, 8, 64, 2, 4000, 1},
    {4, 4, 3, 8, 1, 3000, 2},
    {8, 8, 5, 16, 3, 3000, 3},
};

struct IndexStream
{
    std::uint16_t pc;
    unsigned bytes;
    bool descending;
    Addr array;        //!< index array B
    std::uint64_t valueRange;
    Addr target;       //!< dependent array A
    unsigned scale;
};

constexpr unsigned kStreamElems = 1024;

constexpr IndexStream kIndexStreams[] = {
    {11, 4, false, 0x100000, 1 << 16, 0x4000000, 4},
    {28, 8, false, 0x200000, 1 << 20, 0x8000000, 8},
    {5, 4, true, 0x300000, 1 << 16, 0x200000, 8},
    {40, 8, true, 0x400000, std::uint64_t{1} << 32, 0x1000, 4},
};

std::string
runDmpOrderCase(const DmpCase &dc)
{
    SimMemory mem;
    Rng rng(dc.seed);
    for (const IndexStream &is : kIndexStreams) {
        for (unsigned i = 0; i < kStreamElems; ++i) {
            const Addr a = is.array + Addr{i} * is.bytes;
            const std::uint64_t v = rng.below(is.valueRange);
            if (is.bytes == 4)
                mem.write<std::uint32_t>(a, static_cast<std::uint32_t>(v));
            else
                mem.write<std::uint64_t>(a, v);
        }
    }

    prefetch::IndirectPrefetcher::Config cfg;
    cfg.streamTableSize = dc.streamTableSize;
    cfg.patternTableSize = dc.patternTableSize;
    cfg.recentValues = dc.recentValues;
    cfg.queueMax = dc.queueMax;
    cfg.confidenceThreshold = dc.confidenceThreshold;
    prefetch::IndirectPrefetcher pf(cfg, &mem);

    std::ostringstream os;
    os << "case streams=" << dc.streamTableSize
       << " patterns=" << dc.patternTableSize
       << " recent=" << dc.recentValues << " queue=" << dc.queueMax
       << " threshold=" << dc.confidenceThreshold << '\n';
    os << std::hex;
    std::array<unsigned, std::size(kIndexStreams)> pos{};
    std::array<std::uint64_t, std::size(kIndexStreams)> lastValue{};
    for (unsigned step = 0; step < dc.steps; ++step) {
        cache::CacheReq req;
        bool miss = true;
        const std::uint64_t kind = rng.below(100);
        const auto s = static_cast<std::size_t>(
            rng.below(std::size(kIndexStreams)));
        const IndexStream &is = kIndexStreams[s];
        if (kind < 45) {
            // Index load B[i]; now and then the stream jumps.
            pos[s] = rng.below(20) == 0
                         ? static_cast<unsigned>(rng.below(kStreamElems))
                         : (pos[s] + 1) % kStreamElems;
            const unsigned elem =
                is.descending ? kStreamElems - 1 - pos[s] : pos[s];
            req.addr = is.array + Addr{elem} * is.bytes;
            req.value = is.bytes == 4 ? mem.read<std::uint32_t>(req.addr)
                                      : mem.read<std::uint64_t>(req.addr);
            req.pc = is.pc;
            lastValue[s] = req.value;
            miss = rng.below(4) == 0;
        } else if (kind < 85) {
            // Dependent access A[B[i]]; some are RMW writes.
            req.addr = is.target + lastValue[s] * is.scale;
            req.pc = static_cast<std::uint16_t>(100 + s);
            req.write = rng.below(10) == 0;
        } else if (kind < 95) {
            // Noise: small addresses give negative bases.
            req.addr = rng.below(2) ? rng.below(0x10000)
                                    : rng.below(Addr{1} << 30);
            req.pc = static_cast<std::uint16_t>(rng.below(8));
            req.write = rng.below(5) == 0;
            miss = rng.below(3) != 0;
        } else {
            // Not a core demand: ignored by the prefetcher.
            req.addr = is.target + lastValue[s] * is.scale;
            req.pc = is.pc;
            req.origin = rng.below(2) ? mem::Origin::kPrefetch
                                      : mem::Origin::kDx100;
        }
        pf.observe(req, miss);

        Addr line;
        for (std::uint64_t k = rng.below(4); k > 0 && pf.nextPrefetch(line);
             --k)
            os << "pf " << step << ' ' << line << '\n';
    }
    Addr line;
    while (pf.nextPrefetch(line))
        os << "pf end " << line << '\n';
    const auto &st = pf.stats();
    os << std::dec << "stats learned=" << st.patternsLearned
       << " indirect=" << st.indirectPrefetches
       << " stream=" << st.streamPrefetches << '\n';
    EXPECT_GT(st.patternsLearned, 0u);
    EXPECT_GT(st.indirectPrefetches, 0u);
    return os.str();
}

} // namespace

TEST(DmpGolden, PrefetchOrderMatchesGolden)
{
    const std::filesystem::path file =
        std::filesystem::path(DX_SOURCE_DIR) / "tests" / "golden" /
        "dmp_order.txt";
    std::string actual;
    for (const DmpCase &dc : kDmpCases)
        actual += runDmpOrderCase(dc);

    const char *regen = std::getenv("DX_REGEN_GOLDEN");
    if (regen && regen[0] == '1') {
        std::ofstream(file) << actual;
        return;
    }
    std::ifstream in(file);
    ASSERT_TRUE(in) << "missing golden file " << file;
    std::istringstream want(std::string(
        std::istreambuf_iterator<char>(in), {}));
    std::istringstream got(actual);
    std::string lw, lg;
    for (unsigned line = 1;; ++line) {
        const bool hw = static_cast<bool>(std::getline(want, lw));
        const bool hg = static_cast<bool>(std::getline(got, lg));
        if (!hw && !hg)
            break;
        ASSERT_TRUE(hw && hg && lw == lg)
            << "DMP prefetch order diverged from the golden at line "
            << line << ":\n  golden: " << (hw ? lw : "<end>")
            << "\n  actual: " << (hg ? lg : "<end>");
    }
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
