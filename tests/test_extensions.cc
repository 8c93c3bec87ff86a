/**
 * @file
 * Tests for paper-extension features: the top-down BFS step
 * (footnote 1) and the finish-bit (§3.5) producer->consumer overlap.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/experiment.hh"
#include "workloads/gap.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

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

} // namespace

TEST(Extensions, TopDownBfsCorrectOnBaseline)
{
    BfsTopDown w{Scale{0.05}};
    const RunStats s = runWorkloadOnce(w, SystemConfig::baseline());
    EXPECT_GT(s.instructions, 0u);
}

TEST(Extensions, TopDownBfsCorrectOnDx100)
{
    BfsTopDown w{Scale{0.05}};
    const RunStats s = runWorkloadOnce(w, SystemConfig::withDx100());
    EXPECT_GT(s.dxInstructions, 0u);
}

TEST(Extensions, TopDownBfsCorrectOnDmp)
{
    BfsTopDown w{Scale{0.05}};
    runWorkloadOnce(w, SystemConfig::withDmp());
}

TEST(Extensions, FinishBitsLetConsumerRunUnderProducer)
{
    // The §3.5 mechanism: an ILD whose index tile is still being
    // loaded by the Stream unit must (a) dispatch while the SLD is in
    // flight, (b) make fill progress paced by the producer's prefix,
    // and (c) never run ahead of it. We observe the unit states via
    // debugDump snapshots; the values themselves come from the
    // runtime's functional mirror, so correctness is checked too.
    //
    // (End-to-end cycle savings are deliberately not asserted here:
    // when both phases are DRAM-bandwidth-bound the total traffic is
    // the binding constraint and overlap only hides the fill stage.)
    const std::size_t n = 16384;
    System sys(SystemConfig::withDx100());
    SimMemory &mem = sys.memory();
    const Addr b = sys.allocator().alloc(n * 4);
    const Addr a = sys.allocator().alloc(Addr{16} << 20);
    Rng rng(3);
    for (std::size_t i = 0; i < n; ++i) {
        mem.write<std::uint32_t>(
            b + i * 4,
            static_cast<std::uint32_t>(rng.below(4u << 20)));
    }
    sys.runtime(0)->registerRegion(b, n * 4);
    sys.runtime(0)->registerRegion(a, Addr{16} << 20);

    DirectEmitter e;
    e.dev = sys.dx100(0);
    auto *rt = sys.runtime(0);
    const unsigned idx = rt->allocTile();
    const unsigned dat = rt->allocTile();
    rt->sld(e, 0, runtime::DataType::kU32, b, idx, 0, n);
    rt->ild(e, 0, runtime::DataType::kU32, a, dat, idx);

    bool overlapped = false;
    for (Cycle t = 0; t < 20'000'000 && !sys.dx100(0)->drained(); ++t) {
        sys.tick();
        if (t % 256 == 0) {
            const std::string d = sys.dx100(0)->debugDump();
            const bool streamBusy =
                d.find("stream=busy") != std::string::npos;
            const auto fillAt = d.find("fill=");
            const unsigned fill = static_cast<unsigned>(
                std::stoul(d.substr(fillAt + 5)));
            if (streamBusy && fill > 1024)
                overlapped = true;
        }
    }
    ASSERT_TRUE(sys.dx100(0)->drained());
    EXPECT_TRUE(overlapped)
        << "indirect fill never progressed under the live stream";

    // And the gather result is still exact.
    for (std::size_t i = 0; i < n; i += 611) {
        const auto bi = mem.read<std::uint32_t>(b + i * 4);
        EXPECT_EQ(rt->spdValue(dat, i),
                  mem.read<std::uint32_t>(a + Addr{bi} * 4));
    }
}
