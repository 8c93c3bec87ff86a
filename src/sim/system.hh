/**
 * @file
 * Full-system assembly: cores + private L1/L2 + shared inclusive LLC +
 * DRAM, optionally with DX100 instance(s) and/or the DMP indirect
 * prefetcher. Defaults follow paper Table 3.
 */

#ifndef DX_SIM_SYSTEM_HH
#define DX_SIM_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_port.hh"
#include "common/sim_memory.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "dx100/dx100.hh"
#include "mem/dram_system.hh"
#include "prefetch/indirect_prefetcher.hh"
#include "runtime/dx100_api.hh"
#include "sim/component.hh"
#include "sim/stat_registry.hh"

namespace dx::sim
{

/**
 * How System::run advances simulated time (see DESIGN.md):
 *  - kNaive ticks every component every cycle (the reference loop);
 *  - kQuiescent visits a component only when it is due or touched
 *    (the wake list) and catches its clock up in closed form.
 *    Bit-identical stats.
 *  - kAuto resolves to kNaive when the DX_NAIVE_TICK=1 environment
 *    escape hatch is set, else kQuiescent.
 */
enum class TickPolicy
{
    kAuto,
    kQuiescent,
    kNaive,
};

struct SystemConfig
{
    unsigned cores = 4;
    cpu::Core::Config core;

    cache::Cache::Config l1;
    cache::Cache::Config l2;
    cache::Cache::Config llc;
    bool stridePrefetchers = true;

    mem::DramSystem::Config dram;

    /** Number of DX100 instances (0 = baseline system). */
    unsigned dx100Instances = 0;
    dx100::Dx100Config dx;

    /** Attach a DMP-style indirect prefetcher at each core's L2. */
    bool dmp = false;
    prefetch::IndirectPrefetcher::Config dmpCfg;

    /** Scheduler for System::run (tests pin it; benches use kAuto). */
    TickPolicy tickPolicy = TickPolicy::kAuto;

    SystemConfig();

    /**
     * Check the configuration for the mistakes a wrong experiment
     * script actually makes, with actionable messages: zero cores,
     * cache geometries whose set count is not a power of two,
     * accelerator-vs-DMP conflicts, zero-width core structures,
     * non-power-of-two channel counts, DRAM or scratchpad-port queues
     * that can never admit a request, write watermarks outside
     * lo < hi <= queue. dx_fatal on the first problem
     * found. Called by System's constructor (via TopologyBuilder) and
     * by RunMatrix::addConfig, so every bench validates up front.
     */
    void validate() const;

    /**
     * DX100 instance serving core @p coreId: cores are split into
     * contiguous blocks of ceil(cores / dx100Instances), one block per
     * instance. Requires dx100Instances > 0.
     */
    unsigned dx100InstanceFor(unsigned coreId) const;

    /** Baseline (Table 3): 10 MB LLC, no accelerator. */
    static SystemConfig baseline(unsigned cores = 4);

    /** DX100 system (Table 3): 8 MB LLC + accelerator(s). */
    static SystemConfig withDx100(unsigned cores = 4,
                                  unsigned instances = 1);

    /** Baseline plus the DMP indirect prefetcher. */
    static SystemConfig withDmp(unsigned cores = 4);
};

/**
 * The RunStats schema, defined exactly once. X(field, type) is expanded
 * to declare the struct fields, the field visitors, setField,
 * toString and the JSON emitter — adding a stat is a one-line change
 * here and every producer/consumer picks it up.
 *
 *   cycles                  region-of-interest cycles
 *   instructions            committed, all cores
 *   ipc                     instructions / cycles
 *   bandwidthUtil           DRAM data-bus utilization
 *   rowBufferHitRate        DRAM row-buffer hit fraction
 *   requestBufferOccupancy  mean controller queue occupancy
 *   dramLines               cache lines moved to/from DRAM
 *   llcMpki                 LLC demand misses / kilo-instruction
 *   l2Mpki                  L2 demand misses / kilo-instruction
 *   coalescingFactor        DX100 words per DRAM column access
 *   dxInstructions          DX100 instructions retired
 */
#define DX_RUN_STATS_SCHEMA(X) \
    X(cycles, Cycle) \
    X(instructions, std::uint64_t) \
    X(ipc, double) \
    X(bandwidthUtil, double) \
    X(rowBufferHitRate, double) \
    X(requestBufferOccupancy, double) \
    X(dramLines, std::uint64_t) \
    X(llcMpki, double) \
    X(l2Mpki, double) \
    X(coalescingFactor, double) \
    X(dxInstructions, std::uint64_t)

/** Flat summary of a finished run (feeds EXPERIMENTS.md tables). */
struct RunStats
{
#define DX_STAT_FIELD(name, type) type name = {};
    DX_RUN_STATS_SCHEMA(DX_STAT_FIELD)
#undef DX_STAT_FIELD

    /** Number of fields in the schema. */
    static constexpr std::size_t
    fieldCount()
    {
#define DX_STAT_COUNT(name, type) +1
        return std::size_t{0} DX_RUN_STATS_SCHEMA(DX_STAT_COUNT);
#undef DX_STAT_COUNT
    }

    /** Visit every (name, value) pair in schema order. */
    template <typename F>
    void
    forEachField(F &&f) const
    {
#define DX_STAT_VISIT(name, type) f(#name, name);
        DX_RUN_STATS_SCHEMA(DX_STAT_VISIT)
#undef DX_STAT_VISIT
    }

    /**
     * Assign the field called @p name from @p value (cast to the
     * field's declared type). Returns false for unknown names.
     */
    bool setField(const std::string &name, double value);

    /** True when every schema field compares exactly equal. */
    bool operator==(const RunStats &o) const;

    std::string toString() const;
};

class System final : public Component
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System() override;

    SimMemory &memory() { return mem_; }
    SimAllocator &allocator() { return alloc_; }

    unsigned cores() const { return cfg_.cores; }
    cpu::Core &core(unsigned i) { return *cores_[i]; }
    cache::Cache &l1(unsigned i) { return *l1s_[i]; }
    cache::Cache &l2(unsigned i) { return *l2s_[i]; }
    cache::Cache &llc() { return *llc_; }
    mem::DramSystem &dram() { return *dram_; }

    dx100::Dx100 *dx100(unsigned instance = 0);
    runtime::Dx100Runtime *runtime(unsigned instance = 0);
    runtime::Dx100Runtime *runtimeFor(unsigned coreId);

    void setKernel(unsigned coreId, cpu::Kernel *kernel);

    /**
     * Warm the LLC with a region that is architecturally resident when
     * the region of interest starts (e.g. a vector the cores produced
     * in the previous solver iteration). Stops at LLC capacity.
     */
    void warmLlc(Addr base, Addr size);

    /**
     * Tick every component once (the naive reference scheduler). Not
     * for a System that has already step()ped.
     */
    void tick();

    /**
     * Advance to the next cycle some component is due, at most to
     * @p limit (> now()), and visit the due components in tick order
     * (the wake list, DESIGN.md §4c). Components that are not due
     * keep their clocks behind; sync() catches them up. Identical
     * observable state and stats to tick() once synced — the
     * test_tick_equivalence / test_quiescence_property harnesses
     * enforce this bit-for-bit.
     */
    void step(Cycle limit);

    /** Catch every component's clock up to now(); none becomes due. */
    void sync() { wake_.sync(); }

    /**
     * All cores done and the whole memory system drained — including
     * prefetcher queues, so a run cannot terminate with requests or
     * prefetch candidates still in flight.
     */
    bool drained() const;

    /** True when run() uses the naive scheduler (policy + env). */
    bool naiveTick() const { return naiveTick_; }

    /** Current global cycle. */
    Cycle now() const { return now_; }

    void registerStats(StatRegistry &reg) const override;

    /** Run until all cores are done and the memory system drains. */
    RunStats run(Cycle maxCycles = Cycle{4} << 30);

    /**
     * Collect statistics without running further: a pure projection of
     * the hierarchical registry onto the flat RunStats schema.
     */
    RunStats collectStats() const;

    /**
     * The hierarchical per-component statistics, keyed by dotted
     * component path ("system.core0.l1d.demandMisses"). Built once in
     * the constructor from the component tree; entries reference the
     * live counters, so reads always observe current values. Dump as
     * nested JSON with statRegistry().writeJsonFile(...) — every bench
     * does when DX_STATS_JSON=<path> is set.
     */
    StatRegistry &statRegistry() { return statReg_; }
    const StatRegistry &statRegistry() const { return statReg_; }

    const SystemConfig &config() const { return cfg_; }

    /**
     * Number of System instances currently alive in the process.
     *
     * A System owns every component it ticks (memory, caches, cores,
     * DRAM, DX100 instances); this counter is the *only* mutable state
     * shared across instances, which is what makes independent Systems
     * safe to run on concurrent threads (see sim/parallel_runner.hh).
     * The constructor asserts that invariant where it can be checked.
     */
    static unsigned liveSystems();

  private:
    friend struct TickOrderProbe; // test_component_tree

    /**
     * Visit every ticked component in tick order — cores, L1s, L2s,
     * LLC, DX100 instances, DRAM channels — as its concrete `final`
     * type, so the Ticked calls @p f makes are statically dispatched.
     * A const System visits const components.
     */
    template <typename F>
    void forEachInTickOrder(F &&f) { visitInTickOrder(*this, f); }
    template <typename F>
    void forEachInTickOrder(F &&f) const { visitInTickOrder(*this, f); }

    template <typename Self, typename F>
    static void
    visitInTickOrder(Self &self, F &f)
    {
        // unique_ptr hands out mutable references; keep Self's const.
        const auto at = [](auto &p) -> auto & {
            if constexpr (std::is_const_v<Self>)
                return std::as_const(*p);
            else
                return *p;
        };
        for (auto &c : self.cores_)
            f(at(c));
        for (auto &c : self.l1s_)
            f(at(c));
        for (auto &c : self.l2s_)
            f(at(c));
        f(at(self.llc_));
        for (auto &d : self.dxs_)
            f(at(d));
        auto &dram = at(self.dram_);
        for (unsigned c = 0; c < dram.channels(); ++c)
            f(dram.channel(c));
    }

    static_assert(Ticked<cpu::Core> && Ticked<cache::Cache> &&
                  Ticked<dx100::Dx100> && Ticked<mem::MemoryController>);

    SystemConfig cfg_;
    const bool naiveTick_;
    SimMemory mem_;
    SimAllocator alloc_;

    std::unique_ptr<mem::DramSystem> dram_;
    std::unique_ptr<cache::DramPort> dramPort_;
    std::unique_ptr<cache::RangeRouter> router_;
    std::unique_ptr<cache::Cache> llc_;
    std::vector<std::unique_ptr<cache::Cache>> l2s_;
    std::vector<std::unique_ptr<cache::Cache>> l1s_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<dx100::Dx100>> dxs_;
    std::vector<std::unique_ptr<runtime::Dx100Runtime>> runtimes_;
    std::unique_ptr<dx100::RegionDirectory> regionDir_;

    StatRegistry statReg_;
    Cycle now_ = 0;
    //! Tick-order slots; filled by the first step(), empty when naive.
    WakeList wake_{now_};
};

} // namespace dx::sim

#endif // DX_SIM_SYSTEM_HH
