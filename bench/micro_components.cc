/**
 * @file
 * google-benchmark component microbenchmarks: raw throughput of the
 * substrates (address map, DRAM controller, row table, ISA codec,
 * functional model, functional store). These measure the
 * *simulator's* own speed and component behaviour, complementing the
 * figure benches.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hh"
#include "common/sim_memory.hh"
#include "dx100/functional.hh"
#include "dx100/row_table.hh"
#include "mem/dram_system.hh"

using namespace dx;

static void
BM_AddressMapDecompose(benchmark::State &state)
{
    mem::AddressMap map{mem::DramGeometry{},
                        mem::MapOrder::kChBgCoBaRo};
    Rng rng(1);
    Addr a = 0;
    for (auto _ : state) {
        a += 0x40;
        benchmark::DoNotOptimize(map.decompose(a & 0xffffffff));
    }
}
BENCHMARK(BM_AddressMapDecompose);

static void
BM_IsaEncodeDecode(benchmark::State &state)
{
    dx100::Instruction in;
    in.op = dx100::Opcode::kIrmw;
    in.dtype = dx100::DataType::kF64;
    in.aluOp = dx100::AluOp::kAdd;
    in.ts1 = 3;
    in.ts2 = 4;
    in.base = 0xdeadbeef000;
    for (auto _ : state) {
        auto words = dx100::encode(in);
        benchmark::DoNotOptimize(dx100::decode(words));
    }
}
BENCHMARK(BM_IsaEncodeDecode);

static void
BM_RowTableInsertDrain(benchmark::State &state)
{
    dx100::IndirectTables::Config cfg;
    dx100::IndirectTables t(cfg);
    Rng rng(7);
    for (auto _ : state) {
        state.PauseTiming();
        t.reset(4096);
        state.ResumeTiming();
        std::uint32_t inserted = 0;
        while (inserted < 4096) {
            const auto res = t.insert(
                static_cast<unsigned>(rng.below(cfg.slices)),
                static_cast<std::uint32_t>(rng.below(1024)),
                static_cast<std::uint32_t>(rng.below(128)), 0,
                inserted);
            if (res ==
                dx100::IndirectTables::InsertResult::kSliceFull) {
                for (unsigned s = 0; s < cfg.slices; ++s) {
                    if (auto req = t.nextRequest(s)) {
                        t.completeColumn(
                            req->handle,
                            [](std::uint32_t, std::uint16_t) {});
                    }
                }
                continue;
            }
            ++inserted;
        }
        while (!t.drained()) {
            for (unsigned s = 0; s < cfg.slices; ++s) {
                if (auto req = t.nextRequest(s)) {
                    t.completeColumn(
                        req->handle,
                        [](std::uint32_t, std::uint16_t) {});
                }
            }
        }
    }
}
BENCHMARK(BM_RowTableInsertDrain);

static void
BM_DramControllerRandomReads(benchmark::State &state)
{
    // Simulated-cycles-per-second of the FR-FCFS controller under
    // saturating random read traffic.
    mem::DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    for (auto _ : state) {
        state.PauseTiming();
        mem::DramSystem dram(cfg);
        Rng rng(3);
        state.ResumeTiming();
        for (int t = 0; t < 4096; ++t) {
            const Addr a = lineAlign(rng.below(64u << 20));
            if (dram.canAccept(a, false))
                dram.access(a, false, 0, nullptr);
            dram.tick();
        }
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DramControllerRandomReads);

static void
BM_FunctionalGather(benchmark::State &state)
{
    SimMemory mem;
    dx100::Functional fn(mem, 4, 16384, 8);
    Rng rng(5);
    auto &idx = fn.tileRef(0);
    for (unsigned i = 0; i < 16384; ++i)
        idx.data[i] = rng.below(1 << 20);
    idx.size = 16384;
    dx100::Instruction in;
    in.op = dx100::Opcode::kIld;
    in.dtype = dx100::DataType::kU32;
    in.td = 1;
    in.ts1 = 0;
    in.base = 0x100000;
    for (auto _ : state)
        fn.execute(in);
    state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_FunctionalGather);

// SimMemory: the functional store every index value is read from when
// a micro-op is emitted, and every generated input is written to.
constexpr Addr kSimMemBase = SimAllocator::kHugePage;
constexpr std::size_t kSimMemWords = (16u << 20) / sizeof(std::uint32_t);

static void
BM_SimMemoryFill(benchmark::State &state)
{
    // Sequential 4-byte writes over 16 MiB into a fresh store, frame
    // allocation included (the shape of workload data generation).
    for (auto _ : state) {
        SimMemory mem;
        for (std::size_t i = 0; i < kSimMemWords; ++i)
            mem.write<std::uint32_t>(kSimMemBase + 4 * i,
                                     static_cast<std::uint32_t>(i));
        benchmark::DoNotOptimize(mem.framesAllocated());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kSimMemWords);
}
BENCHMARK(BM_SimMemoryFill)->Unit(benchmark::kMillisecond);

static void
BM_SimMemoryGather(benchmark::State &state)
{
    // Seeded random 4-byte reads over the same 16 MiB (the shape of
    // indirect index and value reads at micro-op emission).
    SimMemory mem;
    for (std::size_t i = 0; i < kSimMemWords; ++i)
        mem.write<std::uint32_t>(kSimMemBase + 4 * i,
                                 static_cast<std::uint32_t>(i));
    Rng rng(11);
    std::vector<Addr> addrs(1u << 16);
    for (Addr &a : addrs)
        a = kSimMemBase + 4 * rng.below(kSimMemWords);
    for (auto _ : state) {
        std::uint32_t sum = 0;
        for (Addr a : addrs)
            sum += mem.read<std::uint32_t>(a);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * addrs.size());
}
BENCHMARK(BM_SimMemoryGather);

BENCHMARK_MAIN();
