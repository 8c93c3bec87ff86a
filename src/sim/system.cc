#include "sim/system.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "sim/topology.hh"

namespace dx::sim
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

void
validateCacheGeometry(const char *label, const cache::Cache::Config &c)
{
    if (c.assoc == 0 || c.sizeBytes == 0)
        dx_fatal("SystemConfig: ", label, " needs a non-zero size and "
                 "associativity (got sizeBytes=", c.sizeBytes,
                 ", assoc=", c.assoc, ")");
    const std::uint64_t waySpan =
        std::uint64_t{c.assoc} * kLineBytes;
    if (c.sizeBytes % waySpan != 0)
        dx_fatal("SystemConfig: ", label, " sizeBytes=", c.sizeBytes,
                 " is not a multiple of assoc*lineBytes=", waySpan,
                 "; pick a size divisible by ", waySpan);
    const std::uint64_t sets = c.sizeBytes / waySpan;
    if (!isPowerOfTwo(sets))
        dx_fatal("SystemConfig: ", label, " geometry gives ", sets,
                 " sets, which is not a power of two; adjust sizeBytes"
                 " (", c.sizeBytes, ") or assoc (", c.assoc,
                 ") so sizeBytes / (assoc * ", kLineBytes,
                 ") is a power of two");
    if (c.mshrs == 0 || c.queueSize == 0 || c.width == 0)
        dx_fatal("SystemConfig: ", label, " needs non-zero mshrs/"
                 "queueSize/width (got ", c.mshrs, "/", c.queueSize,
                 "/", c.width, ")");
}

} // namespace

void
SystemConfig::validate() const
{
    if (cores == 0)
        dx_fatal("SystemConfig: cores must be at least 1 — a system "
                 "with no cores has nothing to run");
    if (core.width == 0 || core.robSize == 0 || core.lqSize == 0 ||
        core.sqSize == 0 || core.loadPorts == 0 || core.storeDrain == 0)
        dx_fatal("SystemConfig: core structures must be non-zero "
                 "(width=", core.width, ", robSize=", core.robSize,
                 ", lqSize=", core.lqSize, ", sqSize=", core.sqSize,
                 ", loadPorts=", core.loadPorts, ", storeDrain=",
                 core.storeDrain, "); with a zero the core never "
                 "dispatches, issues a load or drains a store");
    validateCacheGeometry("l1", l1);
    validateCacheGeometry("l2", l2);
    validateCacheGeometry("llc", llc);
    if (dx100Instances > 0 && dmp)
        dx_fatal("SystemConfig: dx100Instances=", dx100Instances,
                 " conflicts with dmp=true — the DMP indirect "
                 "prefetcher models the comparison baseline and the "
                 "two would fight over the same access stream; enable "
                 "the accelerator or the prefetcher, not both");
    if (dx100Instances > cores)
        dx_fatal("SystemConfig: dx100Instances=", dx100Instances,
                 " exceeds cores=", cores, " — each instance must "
                 "serve at least one core");
    const mem::DramGeometry &g = dram.ctrl.geom;
    for (const auto &[name, v] : {std::pair{"channels", g.channels},
                                  {"ranks", g.ranks},
                                  {"bankGroups", g.bankGroups},
                                  {"banksPerGroup", g.banksPerGroup},
                                  {"rowBytes", g.rowBytes}}) {
        if (!isPowerOfTwo(v))
            dx_fatal("SystemConfig: dram ", name, "=", v, " must be a "
                     "non-zero power of two (the address map selects "
                     "each DRAM coordinate with line-address bits)");
    }
    if (g.rowBytes < kLineBytes || g.rows == 0)
        dx_fatal("SystemConfig: dram rowBytes=", g.rowBytes, " and rows=",
                 g.rows, " must hold at least one ", kLineBytes,
                 "-byte line and one row");
    if (dram.clockRatio == 0)
        dx_fatal("SystemConfig: dram.clockRatio must be at least 1 "
                 "(core cycles per controller cycle)");
    if (g.banksPerChannel() == 0 || g.banksPerChannel() > 64)
        dx_fatal("SystemConfig: dram ranks x bankGroups x banksPerGroup "
                 "= ", g.ranks, " x ", g.bankGroups, " x ",
                 g.banksPerGroup, " = ", g.banksPerChannel(),
                 " banks per channel; it must be 1..64 (the memory "
                 "controller tracks a channel's banks in one 64-bit "
                 "mask) — use fewer ranks or more channels");
    const mem::DramTimings &tm = dram.ctrl.timings;
    if (tm.refreshEnabled && tm.tREFI <= tm.tRFC + tm.tRC())
        dx_fatal("SystemConfig: dram tREFI=", tm.tREFI, " must exceed "
                 "tRFC + tRAS + tRP = ", tm.tRFC + tm.tRC(), " — "
                 "otherwise no row can open and close between two "
                 "refreshes and the channel never serves a request");
    const mem::MemoryController::Config &ctrl = dram.ctrl;
    if (ctrl.readQueueSize == 0 || ctrl.writeQueueSize == 0)
        dx_fatal("SystemConfig: dram readQueueSize=", ctrl.readQueueSize,
                 " and writeQueueSize=", ctrl.writeQueueSize,
                 " must both be at least 1 — a zero queue never admits "
                 "a request, so the run can never finish");
    if (ctrl.writeLoWatermark >= ctrl.writeHiWatermark ||
        ctrl.writeHiWatermark > ctrl.writeQueueSize)
        dx_fatal("SystemConfig: dram write watermarks must satisfy "
                 "lo < hi <= writeQueueSize (got writeLoWatermark=",
                 ctrl.writeLoWatermark, ", writeHiWatermark=",
                 ctrl.writeHiWatermark, ", writeQueueSize=",
                 ctrl.writeQueueSize, "); a high watermark above the "
                 "queue never starts a write drain — try 3/4 and 1/4 of "
                 "the queue");
    const prefetch::IndirectPrefetcher::Config &pf = dmpCfg;
    if (dmp && (pf.streamTableSize == 0 || pf.patternTableSize == 0 ||
                pf.patternTableSize >
                    prefetch::IndirectPrefetcher::kMaxPatterns))
        dx_fatal("SystemConfig: dmpCfg.streamTableSize=",
                 pf.streamTableSize, " must be at least 1 and "
                 "dmpCfg.patternTableSize=", pf.patternTableSize,
                 " must be 1..", prefetch::IndirectPrefetcher::kMaxPatterns,
                 " (the prefetcher indexes streams by pc modulo the table "
                 "size and tracks pattern slots in one 64-bit mask per "
                 "confidence level)");
    if (dmp && pf.confidenceThreshold < 1)
        dx_fatal("SystemConfig: dmpCfg.confidenceThreshold=",
                 pf.confidenceThreshold, " must be at least 1 (default ",
                 prefetch::IndirectPrefetcher::Config{}.confidenceThreshold,
                 "); a new pattern starts at confidence 1");
    using Dx = dx100::Dx100Config;
    for (const auto &[name, field] : {
             std::pair{"tileElems", &Dx::tileElems},
             {"fillRate", &Dx::fillRate},
             {"requestTableSize", &Dx::requestTableSize},
             {"rowsPerSlice", &Dx::rowsPerSlice},
             {"respPerCycle", &Dx::respPerCycle},
             {"dispatchWindow", &Dx::dispatchWindow},
             {"spdPortQueue", &Dx::spdPortQueue},
             {"tlbEntries", &Dx::tlbEntries}}) {
        if (dx100Instances > 0 && dx.*field == 0)
            dx_fatal("SystemConfig: dx.", name, " must be at least 1 "
                     "(Table 3 default: ", Dx{}.*field, ") — at zero the "
                     "unit it sizes never makes progress, so the run can "
                     "never finish");
    }
}

unsigned
SystemConfig::dx100InstanceFor(unsigned coreId) const
{
    dx_assert(dx100Instances > 0, "no DX100 instance to serve a core");
    return coreId / ((cores + dx100Instances - 1) / dx100Instances);
}

SystemConfig::SystemConfig()
{
    l1.name = "L1D";
    l1.sizeBytes = 32 * 1024;
    l1.assoc = 8;
    l1.latency = 4;
    l1.mshrs = 16;
    l1.queueSize = 16;
    l1.width = 2;

    l2.name = "L2";
    l2.sizeBytes = 256 * 1024;
    l2.assoc = 4;
    l2.latency = 12;
    l2.mshrs = 32;
    l2.queueSize = 24;
    l2.width = 2;

    llc.name = "LLC";
    llc.sizeBytes = 10 * 1024 * 1024;
    llc.assoc = 20;
    llc.latency = 42;
    llc.mshrs = 256;
    llc.queueSize = 96;
    llc.width = 4;
    llc.inclusiveRoot = true;
}

SystemConfig
SystemConfig::baseline(unsigned cores)
{
    SystemConfig cfg;
    cfg.cores = cores;
    // Scale channels with core count (paper Fig. 14: 8 cores, 4 ch).
    cfg.dram.ctrl.geom.channels = cores <= 4 ? 2 : 4;
    if (cores > 4)
        cfg.llc.sizeBytes = 20 * 1024 * 1024;
    return cfg;
}

SystemConfig
SystemConfig::withDx100(unsigned cores, unsigned instances)
{
    SystemConfig cfg = baseline(cores);
    cfg.dx100Instances = instances;
    // Fair comparison: the LLC gives up ~2 MB per instance (paper §5),
    // rounded so the set count stays a power of two.
    cfg.llc.sizeBytes = cores <= 4 ? 8 * 1024 * 1024
                                   : 16 * 1024 * 1024;
    cfg.llc.assoc = 16;
    return cfg;
}

SystemConfig
SystemConfig::withDmp(unsigned cores)
{
    SystemConfig cfg = baseline(cores);
    cfg.dmp = true;
    return cfg;
}

bool
RunStats::setField(const std::string &name, double value)
{
#define DX_STAT_SET(fname, type) \
    if (name == #fname) { \
        fname = static_cast<type>(value); \
        return true; \
    }
    DX_RUN_STATS_SCHEMA(DX_STAT_SET)
#undef DX_STAT_SET
    return false;
}

bool
RunStats::operator==(const RunStats &o) const
{
#define DX_STAT_EQ(fname, type) \
    if (fname != o.fname) \
        return false;
    DX_RUN_STATS_SCHEMA(DX_STAT_EQ)
#undef DX_STAT_EQ
    return true;
}

std::string
RunStats::toString() const
{
    std::ostringstream os;
    bool first = true;
    forEachField([&](const char *name, auto value) {
        os << (first ? "" : " ") << name << "=" << value;
        first = false;
    });
    return os.str();
}

namespace
{

/** The only cross-System shared state; see System::liveSystems(). */
std::atomic<unsigned> gLiveSystems{0};

bool
resolveNaiveTick(TickPolicy policy)
{
    if (policy == TickPolicy::kNaive)
        return true;
    if (policy == TickPolicy::kQuiescent)
        return false;
    const char *env = std::getenv("DX_NAIVE_TICK");
    return env && env[0] == '1' && env[1] == '\0';
}

} // namespace

unsigned
System::liveSystems()
{
    return gLiveSystems.load(std::memory_order_relaxed);
}

System::System(const SystemConfig &cfg)
    : Component("system"), cfg_(cfg),
      naiveTick_(resolveNaiveTick(cfg.tickPolicy))
{
    gLiveSystems.fetch_add(1, std::memory_order_relaxed);

    // All structural wiring lives in the builder; the System just
    // takes ownership of the finished topology.
    Topology t = TopologyBuilder(cfg_, mem_).build(*this);
    dram_ = std::move(t.dram);
    dramPort_ = std::move(t.dramPort);
    router_ = std::move(t.router);
    llc_ = std::move(t.llc);
    l2s_ = std::move(t.l2s);
    l1s_ = std::move(t.l1s);
    cores_ = std::move(t.cores);
    dxs_ = std::move(t.dxs);
    runtimes_ = std::move(t.runtimes);
    regionDir_ = std::move(t.regionDir);

    // Parallel-safety invariant: every component this System ticks is
    // owned by this instance (no component registry, no global memory
    // pool). Check the ownership edges that matter.
    dx_assert(l1s_.size() == cfg_.cores &&
                  l2s_.size() == cfg_.cores &&
                  cores_.size() == cfg_.cores,
              "System must own one L1/L2/core per configured core");
    dx_assert(dxs_.size() == cfg_.dx100Instances,
              "System must own every configured DX100 instance");

    // Publish every component's counters under its tree path. Entries
    // reference live objects, so this happens once, up front.
    registerTreeStats(*this, statReg_);
}

System::~System()
{
    gLiveSystems.fetch_sub(1, std::memory_order_relaxed);
}

dx100::Dx100 *
System::dx100(unsigned instance)
{
    return instance < dxs_.size() ? dxs_[instance].get() : nullptr;
}

runtime::Dx100Runtime *
System::runtime(unsigned instance)
{
    return instance < runtimes_.size() ? runtimes_[instance].get()
                                       : nullptr;
}

runtime::Dx100Runtime *
System::runtimeFor(unsigned coreId)
{
    return runtimes_.empty()
               ? nullptr
               : runtimes_[cfg_.dx100InstanceFor(coreId)].get();
}

void
System::setKernel(unsigned coreId, cpu::Kernel *kernel)
{
    cores_[coreId]->setKernel(kernel);
}

void
System::warmLlc(Addr base, Addr size)
{
    // Warm at most 7/8 of the LLC, preferring the *tail* of the region
    // (what an LRU cache would retain after the producing phase).
    const Addr limit = std::min<Addr>(
        size, cfg_.llc.sizeBytes - cfg_.llc.sizeBytes / 8);
    const Addr start = base + (size - limit);
    for (Addr off = 0; off < limit; off += kLineBytes)
        llc_->warmInsert(start + off);
}

void
System::tick()
{
    dx_assert(wake_.empty(), "naive tick() after step()");
    ++now_;
    forEachInTickOrder([](auto &c) { c.tick(); });
}

void
System::step(Cycle limit)
{
    if (wake_.empty())
        forEachInTickOrder([this](auto &c) { wake_.add(c); });
    now_ = std::min(wake_.next(), limit);
    wake_.begin();
    forEachInTickOrder([this](auto &c) { wake_.visit(c); });
}

bool
System::drained() const
{
    bool all = true;
    forEachInTickOrder([&all](const auto &c) { all = all && c.drained(); });
    return all;
}

RunStats
System::run(Cycle maxCycles)
{
    const Cycle start = now_;
    const Cycle limit = start + maxCycles;
    while (!drained()) {
        // The cap keeps the cycle-limit fatal below reachable when
        // nothing is due again.
        if (naiveTick_)
            tick();
        else
            step(limit);
        if (now_ - start >= maxCycles)
            dx_fatal("simulation exceeded cycle limit");
    }
    // A drained system must have emptied every redundant index too.
    forEachInTickOrder([](const auto &c) {
        if constexpr (requires { c.auditDrained(); })
            c.auditDrained();
    });

    sync();
    RunStats s = collectStats();
    s.cycles = now_ - start;
    s.ipc = s.cycles ? static_cast<double>(s.instructions) / s.cycles
                     : 0.0;
    return s;
}

void
System::registerStats(StatRegistry &reg) const
{
    reg.group(path()).value("cycles", now_);
}

RunStats
System::collectStats() const
{
    // Pure projection of the hierarchical registry onto the flat
    // schema. Integral stats use the exact intValue() read; derived
    // ratios read the registered gauge, which wraps the component's
    // own accessor — the arithmetic is bit-identical to reading the
    // component directly.
    const StatRegistry &r = statReg_;
    RunStats s;
    s.cycles = r.intValue(path() + ".cycles");
    for (const auto &c : cores_)
        s.instructions += r.intValue(c->path() + ".committedOps");
    s.ipc = now_ ? static_cast<double>(s.instructions) / now_ : 0.0;
    s.bandwidthUtil = r.value(dram_->path() + ".busUtilization");
    s.rowBufferHitRate = r.value(dram_->path() + ".rowHitRate");
    s.requestBufferOccupancy =
        r.value(dram_->path() + ".queueOccupancy");
    s.dramLines = r.intValue(dram_->path() + ".linesTransferred");

    const double kilo = s.instructions / 1000.0;
    if (kilo > 0) {
        s.llcMpki =
            r.intValue(llc_->path() + ".demandMisses") / kilo;
        std::uint64_t l2m = 0;
        for (const auto &c : l2s_)
            l2m += r.intValue(c->path() + ".demandMisses");
        s.l2Mpki = l2m / kilo;
    }

    // Coalescing aggregates the raw counters over every instance and
    // divides once, with the arithmetic of
    // Dx100::Stats::coalescingFactor(), so one instance reads the same.
    std::uint64_t words = 0;
    std::uint64_t columns = 0;
    for (const auto &d : dxs_) {
        s.dxInstructions +=
            r.intValue(d->path() + ".instructionsRetired");
        words += r.intValue(d->path() + ".rowtable.words");
        columns += r.intValue(d->path() + ".rowtable.columns");
    }
    s.coalescingFactor =
        columns ? static_cast<double>(words) / columns : 0.0;
    return s;
}

} // namespace dx::sim
