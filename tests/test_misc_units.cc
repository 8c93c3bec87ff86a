/**
 * @file
 * Remaining unit coverage: SimMemory sparsity and typed access, the
 * bump allocator, Scale / coreSlice partitioning, the RNG's
 * determinism and distribution sanity, stream-scalar edge cases, and
 * the area/power model identities.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/rng.hh"
#include "common/sim_memory.hh"
#include "model/area_power.hh"
#include "workloads/workload.hh"

using namespace dx;

TEST(SimMemory, SparseFramesAndZeroFill)
{
    SimMemory mem;
    EXPECT_EQ(mem.framesAllocated(), 0u);
    EXPECT_EQ(mem.read<std::uint64_t>(0x123456789), 0u); // read never
    EXPECT_EQ(mem.framesAllocated(), 0u);                // materializes

    mem.write<std::uint32_t>(0x123456789, 42);
    EXPECT_EQ(mem.framesAllocated(), 1u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x123456789), 42u);
}

TEST(SimMemory, CrossFrameAccesses)
{
    SimMemory mem;
    const Addr boundary = SimMemory::kFrameBytes;
    mem.write<std::uint64_t>(boundary - 4, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read<std::uint64_t>(boundary - 4),
              0x1122334455667788ULL);
    EXPECT_EQ(mem.framesAllocated(), 2u);

    std::uint8_t buf[256];
    mem.readBytes(boundary - 128, buf, 256);
    mem.writeBytes(boundary - 128, buf, 256);
}

// Every typed access near a frame end agrees with a byte-wise
// readBytes reference, whether it lies inside one frame or straddles
// two.
template <typename T>
void
checkTypedAccessNearFrameEnd()
{
    const Addr frameEnd = 3 * SimMemory::kFrameBytes;
    for (Addr addr = frameEnd - 8; addr < frameEnd + 8; ++addr) {
        SimMemory mem;
        T value{};
        std::uint8_t bytes[sizeof(T)];
        for (unsigned i = 0; i < sizeof(T); ++i)
            bytes[i] = static_cast<std::uint8_t>(0xa1 + 7 * i + addr);
        std::memcpy(&value, bytes, sizeof(T));
        mem.write<T>(addr, value);
        EXPECT_EQ(mem.read<T>(addr), value) << sizeof(T) << " @ " << addr;
        for (unsigned i = 0; i < sizeof(T); ++i) {
            std::uint8_t b = 0;
            mem.readBytes(addr + i, &b, 1);
            EXPECT_EQ(b, bytes[i]) << sizeof(T) << " @ " << addr;
        }
        std::uint8_t before = 1, after = 1;
        mem.readBytes(addr - 1, &before, 1);
        mem.readBytes(addr + sizeof(T), &after, 1);
        EXPECT_EQ(before, 0u);
        EXPECT_EQ(after, 0u);
        const bool straddles =
            (addr >> SimMemory::kFrameShift) !=
            ((addr + sizeof(T) - 1) >> SimMemory::kFrameShift);
        EXPECT_EQ(mem.framesAllocated(), straddles ? 2u : 1u);
    }
}

TEST(SimMemory, TypedAccessMatchesBytesNearFrameEnd)
{
    checkTypedAccessNearFrameEnd<std::uint8_t>();
    checkTypedAccessNearFrameEnd<std::uint16_t>();
    checkTypedAccessNearFrameEnd<std::uint32_t>();
    checkTypedAccessNearFrameEnd<std::uint64_t>();
}

TEST(SimMemory, StraddlingReadIntoUnwrittenFrameReadsZeros)
{
    SimMemory mem;
    const Addr frameEnd = 5 * SimMemory::kFrameBytes;
    mem.write<std::uint32_t>(frameEnd - 4, 0xdeadbeefu);
    ASSERT_EQ(mem.framesAllocated(), 1u);
    EXPECT_EQ(mem.read<std::uint64_t>(frameEnd - 4), 0xdeadbeefULL);
    EXPECT_EQ(mem.read<std::uint32_t>(frameEnd - 2), 0xdeadu);
    EXPECT_EQ(mem.framesAllocated(), 1u);
}

TEST(SimMemory, UnwrittenReadsAreZeroAndAllocateNothing)
{
    SimMemory mem;
    mem.write<std::uint32_t>(0x200000, 7);
    const std::size_t frames = mem.framesAllocated();
    for (Addr addr : {Addr{0}, Addr{0x1fff00}, Addr{0x210000},
                      Addr{1} << 40, Addr{1} << 52, ~Addr{0} - 15}) {
        EXPECT_EQ(mem.read<std::uint64_t>(addr), 0u) << addr;
        EXPECT_EQ(mem.read<std::uint8_t>(addr + 8), 0u) << addr;
        std::uint8_t buf[8] = {1, 1, 1, 1, 1, 1, 1, 1};
        mem.readBytes(addr, buf, sizeof(buf));
        for (std::uint8_t b : buf)
            EXPECT_EQ(b, 0u) << addr;
    }
    EXPECT_EQ(mem.framesAllocated(), frames);
    EXPECT_EQ(mem.read<std::uint32_t>(0x200000), 7u);
}

TEST(SimMemoryDeathTest, WritePastTheBoundPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SimMemory mem;
    const Addr limit = SimMemory::kAddrLimit;
    mem.write<std::uint32_t>(limit - 4, 1); // the last word below it
    EXPECT_EQ(mem.read<std::uint32_t>(limit - 4), 1u);
    EXPECT_EQ(mem.read<std::uint32_t>(limit), 0u); // reads stay zero
    EXPECT_DEATH(mem.write<std::uint8_t>(limit, 1), "bound");
    EXPECT_DEATH(mem.write<std::uint64_t>(limit - 4, 1), "bound");
}

TEST(SimMemory, ZeroRange)
{
    SimMemory mem;
    mem.write<std::uint64_t>(0x1000, ~0ULL);
    mem.write<std::uint64_t>(0x1008, ~0ULL);
    mem.zero(0x1004, 8);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1000), 0xffffffffu);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1004), 0u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1008), 0u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x100c), 0xffffffffu);
}

TEST(SimAllocator, AlignsToHugePages)
{
    SimAllocator alloc;
    const Addr a = alloc.alloc(100);
    const Addr b = alloc.alloc(100);
    EXPECT_EQ(a % SimAllocator::kHugePage, 0u);
    EXPECT_EQ(b % SimAllocator::kHugePage, 0u);
    EXPECT_GE(b, a + 100);

    const Addr c = alloc.alloc(64, 64);
    EXPECT_EQ(c % 64, 0u);
}

TEST(ArrayRef, TypedAccessors)
{
    SimMemory mem;
    SimAllocator alloc;
    auto arr = ArrayRef<double>::make(mem, alloc, 16);
    arr.set(3, 2.5);
    EXPECT_EQ(arr.at(3), 2.5);
    EXPECT_EQ(arr.addrOf(3), arr.base() + 24);
    EXPECT_EQ(arr.bytes(), 128u);
}

TEST(CoreSlice, PartitionsExactlyAndInOrder)
{
    for (std::size_t n : {0u, 1u, 7u, 100u, 4096u}) {
        std::size_t covered = 0;
        std::size_t prevEnd = 0;
        for (unsigned c = 0; c < 4; ++c) {
            const auto [b, e] = wl::coreSlice(n, c, 4);
            EXPECT_EQ(b, prevEnd);
            EXPECT_LE(b, e);
            covered += e - b;
            prevEnd = e;
        }
        EXPECT_EQ(covered, n);
        EXPECT_EQ(prevEnd, n);
    }
}

TEST(Scale, FloorsAtSixteen)
{
    EXPECT_EQ(wl::Scale{1.0}.of(1024), 1024u);
    EXPECT_EQ(wl::Scale{0.5}.of(1024), 512u);
    EXPECT_EQ(wl::Scale{0.0001}.of(1024), 16u);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(99), b(99), c(100);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);

    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, RoughlyUniform)
{
    Rng r(7);
    std::map<std::uint64_t, unsigned> hist;
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++hist[r.below(8)];
    for (std::uint64_t k = 0; k < 8; ++k) {
        EXPECT_GT(hist[k], n / 8 - n / 40) << "bucket " << k;
        EXPECT_LT(hist[k], n / 8 + n / 40) << "bucket " << k;
    }
}

TEST(AreaPower, TotalsMatchComponentSums)
{
    using M = model::AreaPowerModel;
    double area = 0, power = 0;
    for (const auto &c : M::components()) {
        area += c.areaMm2atlas28;
        power += c.powerMw28;
    }
    EXPECT_DOUBLE_EQ(M::totalArea28(), area);
    EXPECT_DOUBLE_EQ(M::totalPower28(), power);
    // Paper: 4.061 mm^2 / 777.17 mW (their per-component rounding).
    EXPECT_NEAR(M::totalArea28(), 4.061, 0.01);
    EXPECT_NEAR(M::totalPower28(), 777.17, 0.5);
    EXPECT_NEAR(M::totalArea14(), 1.5, 0.01);
    EXPECT_NEAR(M::processorOverhead(4), 0.037, 0.002);
}
