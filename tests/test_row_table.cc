/**
 * @file
 * Row Table / Word Table tests: coalescing via word chains, row
 * grouping, capacity handling, drain ordering, and release, plus a
 * golden record of the exact request and word-chain order under
 * seeded random traffic.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dx100/row_table.hh"

using namespace dx;
using namespace dx::dx100;

namespace
{

IndirectTables::Config
smallCfg()
{
    IndirectTables::Config cfg;
    cfg.slices = 4;
    cfg.rowsPerSlice = 4;
    cfg.colsPerRow = 2;
    return cfg;
}

} // namespace

TEST(RowTable, CoalescesWordsInSameColumn)
{
    IndirectTables t(smallCfg());
    t.reset(8);

    // Three iterations to the same (slice 0, row 5, col 7).
    EXPECT_EQ(t.insert(0, 5, 7, 0, 0),
              IndirectTables::InsertResult::kNewColumn);
    EXPECT_EQ(t.insert(0, 5, 7, 4, 1), IndirectTables::InsertResult::kOk);
    EXPECT_EQ(t.insert(0, 5, 7, 8, 2), IndirectTables::InsertResult::kOk);
    EXPECT_EQ(t.columnsAllocated(), 1u);

    auto req = t.nextRequest(0);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->row, 5u);
    EXPECT_EQ(req->col, 7u);
    EXPECT_EQ(t.wordsInColumn(req->handle), 3u);

    std::set<std::uint32_t> iters;
    t.completeColumn(req->handle,
                     [&](std::uint32_t i, std::uint16_t) {
                         iters.insert(i);
                     });
    EXPECT_EQ(iters, (std::set<std::uint32_t>{0, 1, 2}));
    EXPECT_TRUE(t.drained());
    t.auditDrained();
}

TEST(RowTable, GroupsColumnsUnderOneRow)
{
    IndirectTables t(smallCfg());
    t.reset(8);

    t.insert(1, 9, 0, 0, 0);
    t.insert(1, 9, 1, 0, 1);
    EXPECT_EQ(t.rowsLive(1), 1u); // one BCAM entry, two SRAM columns

    // Third distinct column overflows colsPerRow=2: new row entry.
    t.insert(1, 9, 2, 0, 2);
    EXPECT_EQ(t.rowsLive(1), 2u);
}

TEST(RowTable, SliceFullReportsAndRecovers)
{
    IndirectTables t(smallCfg());
    t.reset(64);

    // Fill slice 2 with 4 distinct rows.
    for (std::uint32_t r = 0; r < 4; ++r)
        EXPECT_EQ(t.insert(2, r, 0, 0, r),
                  IndirectTables::InsertResult::kNewColumn);
    EXPECT_EQ(t.insert(2, 99, 0, 0, 5),
              IndirectTables::InsertResult::kSliceFull);

    // Drain one row; space opens up.
    auto req = t.nextRequest(2);
    ASSERT_TRUE(req.has_value());
    t.completeColumn(req->handle, [](std::uint32_t, std::uint16_t) {});
    EXPECT_EQ(t.insert(2, 99, 0, 0, 5),
              IndirectTables::InsertResult::kNewColumn);
}

TEST(RowTable, DrainsOldestRowFirst)
{
    IndirectTables t(smallCfg());
    t.reset(16);

    t.insert(0, 30, 0, 0, 0);
    t.insert(0, 10, 0, 0, 1);
    t.insert(0, 20, 0, 0, 2);

    auto r1 = t.nextRequest(0);
    auto r2 = t.nextRequest(0);
    auto r3 = t.nextRequest(0);
    ASSERT_TRUE(r1 && r2 && r3);
    EXPECT_EQ(r1->row, 30u);
    EXPECT_EQ(r2->row, 10u);
    EXPECT_EQ(r3->row, 20u);
    EXPECT_FALSE(t.nextRequest(0).has_value());
}

TEST(RowTable, UnsendRevertsSelection)
{
    IndirectTables t(smallCfg());
    t.reset(4);
    t.insert(3, 1, 1, 0, 0);

    auto req = t.nextRequest(3);
    ASSERT_TRUE(req.has_value());
    EXPECT_FALSE(t.nextRequest(3).has_value());

    t.unsend(*req);
    auto again = t.nextRequest(3);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->handle, req->handle);
}

TEST(RowTable, CacheHitBitTravelsWithRequest)
{
    IndirectTables t(smallCfg());
    t.reset(4);
    t.insert(0, 2, 3, 0, 0);
    t.setCacheHit(0, true);
    auto req = t.nextRequest(0);
    ASSERT_TRUE(req.has_value());
    EXPECT_TRUE(req->cacheHit);
}

TEST(RowTable, RandomizedAllWordsDeliveredExactlyOnce)
{
    IndirectTables::Config cfg;
    cfg.slices = 8;
    cfg.rowsPerSlice = 64;
    cfg.colsPerRow = 8;
    IndirectTables t(cfg);

    const std::uint32_t n = 4096;
    t.reset(n);
    Rng rng(77);

    std::vector<bool> seen(n, false);
    std::uint32_t inserted = 0;
    std::uint32_t delivered = 0;

    auto drainSome = [&](unsigned count) {
        for (unsigned k = 0; k < count; ++k) {
            for (unsigned s = 0; s < cfg.slices; ++s) {
                auto req = t.nextRequest(s);
                if (!req)
                    continue;
                delivered += t.completeColumn(
                    req->handle, [&](std::uint32_t i, std::uint16_t) {
                        EXPECT_FALSE(seen[i]) << "duplicate " << i;
                        seen[i] = true;
                    });
            }
        }
    };

    while (inserted < n) {
        const unsigned slice = static_cast<unsigned>(rng.below(8));
        const auto row = static_cast<std::uint32_t>(rng.below(512));
        const auto col = static_cast<std::uint32_t>(rng.below(16));
        const auto res = t.insert(slice, row, col,
                                  static_cast<std::uint16_t>(
                                      rng.below(16)),
                                  inserted);
        if (res == IndirectTables::InsertResult::kSliceFull) {
            drainSome(4);
            continue;
        }
        ++inserted;
    }
    while (!t.drained())
        drainSome(1);
    t.auditDrained();

    EXPECT_EQ(delivered, n);
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_TRUE(seen[i]) << "missing " << i;
}

TEST(RowTable, CoalescingReducesColumnCount)
{
    IndirectTables::Config cfg;
    cfg.slices = 2;
    cfg.rowsPerSlice = 64;
    cfg.colsPerRow = 8;
    IndirectTables t(cfg);

    // 1024 iterations over only 32 distinct columns.
    const std::uint32_t n = 1024;
    t.reset(n);
    Rng rng(5);
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::uint32_t>(rng.below(32));
        auto res = t.insert(c % 2, c / 16, c % 16,
                            static_cast<std::uint16_t>(i % 16), i);
        ASSERT_NE(res, IndirectTables::InsertResult::kSliceFull);
    }
    EXPECT_LE(t.columnsAllocated(), 32u);
    EXPECT_GE(static_cast<double>(n) / t.columnsAllocated(), 30.0);
}

// ---------------------------------------------------------------------
// Insert/drain golden: the table driven the way the Indirect unit
// drives it (fill until a slice is full, round-robin requests with
// occasional refusals, out-of-order completions, several executions
// per table). Every request's handle, slice, row and column and every
// completed column's word chain are compared against
// tests/golden/row_table_order.txt, so any change to first-match
// order, row reuse or chain order shows up here before it reaches the
// system-level goldens. Regenerate after an intended change with
// DX_REGEN_GOLDEN=1 (tools/regen_golden.sh does this).
// ---------------------------------------------------------------------

namespace
{

struct OrderCase
{
    unsigned slices, rowsPerSlice, colsPerRow;
    std::uint32_t rowRange, colRange, elems;
    std::uint64_t seed;
};

constexpr OrderCase kOrderCases[] = {
    {4, 4, 2, 6, 4, 300, 1},
    {8, 4, 4, 6, 8, 600, 2},
    {4, 64, 8, 80, 12, 1500, 3},
};

std::string
runRowTableOrderCase(const OrderCase &oc)
{
    IndirectTables::Config cfg;
    cfg.slices = oc.slices;
    cfg.rowsPerSlice = oc.rowsPerSlice;
    cfg.colsPerRow = oc.colsPerRow;
    IndirectTables t(cfg);
    Rng rng(oc.seed);

    std::ostringstream os;
    os << "case slices=" << oc.slices << " rows=" << oc.rowsPerSlice
       << " cols=" << oc.colsPerRow << " elems=" << oc.elems << '\n';
    for (unsigned exec = 0; exec < 2; ++exec) {
        t.reset(oc.elems);
        std::vector<IndirectTables::ColHandle> inflight;
        std::uint32_t fill = 0;
        unsigned fullStalls = 0, refusals = 0, cycles = 0;
        while (fill < oc.elems || !t.drained()) {
            ++cycles;
            // Fill stage: up to two inserts, stopped by a full slice.
            for (unsigned k = 0; k < 2 && fill < oc.elems; ++k) {
                const auto slice =
                    static_cast<unsigned>(rng.below(oc.slices));
                const auto row =
                    static_cast<std::uint32_t>(rng.below(oc.rowRange));
                const auto col =
                    static_cast<std::uint32_t>(rng.below(oc.colRange));
                const auto off =
                    static_cast<std::uint16_t>(rng.below(16));
                const auto res = t.insert(slice, row, col, off, fill);
                if (res == IndirectTables::InsertResult::kSliceFull) {
                    ++fullStalls;
                    break;
                }
                if (res == IndirectTables::InsertResult::kNewColumn) {
                    const auto h = static_cast<IndirectTables::ColHandle>(
                        t.columnsAllocated() - 1);
                    t.setCacheHit(h, h % 3 == 0);
                }
                ++fill;
            }
            // Request stage: drain once the fill is done or blocked,
            // and sometimes earlier; a refused request is reverted.
            if (fill >= oc.elems || rng.real() < 0.1) {
                for (unsigned s = 0; s < oc.slices; ++s) {
                    auto req = t.nextRequest(s);
                    if (!req)
                        continue;
                    if (rng.real() < 0.1) {
                        t.unsend(*req);
                        ++refusals;
                        continue;
                    }
                    os << "req " << req->handle << ' ' << req->slice
                       << ' ' << req->row << ' ' << req->col << ' '
                       << req->cacheHit << '\n';
                    inflight.push_back(req->handle);
                }
            }
            // Response stage: complete up to three columns, any order.
            for (unsigned k = 0; k < 3 && !inflight.empty(); ++k) {
                if (rng.real() < 0.4)
                    continue;
                const std::size_t pick = rng.below(inflight.size());
                const IndirectTables::ColHandle h = inflight[pick];
                inflight.erase(inflight.begin() +
                               static_cast<std::ptrdiff_t>(pick));
                os << "done " << h << ':';
                t.completeColumn(h, [&](std::uint32_t i,
                                        std::uint16_t off) {
                    os << ' ' << i << '/' << off;
                });
                os << '\n';
            }
        }
        t.auditDrained();
        os << "exec " << exec << " cycles=" << cycles
           << " columns=" << t.columnsAllocated()
           << " fullStalls=" << fullStalls << " refusals=" << refusals
           << '\n';
    }
    return os.str();
}

} // namespace

TEST(RowTableGolden, InsertDrainOrderMatchesGolden)
{
    const std::filesystem::path file =
        std::filesystem::path(DX_SOURCE_DIR) / "tests" / "golden" /
        "row_table_order.txt";
    std::string actual;
    for (const OrderCase &oc : kOrderCases)
        actual += runRowTableOrderCase(oc);

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
            << "Row Table order diverged from the golden at line "
            << line << ":\n  golden: " << (hw ? lw : "<end>")
            << "\n  actual: " << (hg ? lg : "<end>");
    }
}
