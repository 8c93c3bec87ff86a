/**
 * @file
 * The DX100 accelerator timing model (paper §3).
 *
 * A shared, memory-mapped accelerator containing:
 *  - Controller: doorbell assembly, out-of-order dispatch through a
 *    scoreboard that enforces tile RAW/WAW hazards, retirement and
 *    tile ready bits.
 *  - Stream Access unit: streaming loads/stores through the LLC with a
 *    bounded request table (MSHR analogue).
 *  - Indirect Access unit: Row Table / Word Table based reordering,
 *    coalescing, and channel/bank-group interleaved request generation;
 *    direct DRAM injection for uncached lines, LLC access for cached
 *    lines (H bit via coherency snoop).
 *  - Range Fuser and ALU units: throughput-modeled tile operations.
 *  - Scratchpad port: services core loads of gathered data below the
 *    LLC; a coherency agent tracks which SPD lines the cores cached and
 *    back-invalidates them when an instruction rewrites a tile.
 */

#ifndef DX_DX100_DX100_HH
#define DX_DX100_DX100_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache_if.hh"
#include "common/stats.hh"
#include "cpu/mmio.hh"
#include "dx100/config.hh"
#include "dx100/payload.hh"
#include "dx100/region_directory.hh"
#include "dx100/row_table.hh"
#include "dx100/tlb.hh"
#include "mem/dram_system.hh"
#include "sim/component.hh"

namespace dx::dx100
{

/**
 * Invalidates scratchpad lines from the cache hierarchy and answers
 * "is this DRAM line cached?" snoops (the LLC is inclusive, so LLC
 * presence covers the private levels).
 */
class CoherencyAgent
{
  public:
    void setLlc(SnoopPort *llc) { llc_ = llc; }
    void addCache(SnoopPort *c) { caches_.push_back(c); }

    bool
    isCached(Addr line) const
    {
        return llc_ && llc_->containsLine(line);
    }

    /** Invalidate one line everywhere; returns #caches that held it. */
    unsigned
    invalidateLine(Addr line)
    {
        unsigned n = 0;
        for (SnoopPort *c : caches_) {
            if (c->containsLine(line)) {
                c->invalidateLine(line);
                ++n;
            }
        }
        return n;
    }

  private:
    SnoopPort *llc_ = nullptr;
    std::vector<SnoopPort *> caches_;
};

class Dx100 final : public Component, public cpu::MmioDevice
{
  public:
    struct Stats
    {
        Counter instructionsRetired;
        std::array<Counter, 8> byOpcode;
        Counter indirectWords;     //!< iterations processed (post-cond)
        Counter indirectColumns;   //!< unique DRAM columns accessed
        Counter dramReads;
        Counter dramWrites;
        Counter llcReads;
        Counter llcWrites;
        Counter spdLinesServed;    //!< core-side scratchpad line reads
        Counter invalidations;     //!< SPD lines invalidated on dispatch
        Counter fillStallCycles;   //!< fill blocked on a full slice
        Counter dispatchStalls;    //!< no instruction dispatchable

        double
        coalescingFactor() const
        {
            return indirectColumns.value()
                ? static_cast<double>(indirectWords.value()) /
                      indirectColumns.value()
                : 0.0;
        }
    };

    Dx100(const Dx100Config &cfg, mem::DramSystem &dram,
          cache::CachePort *llcPort, CoherencyAgent agent,
          unsigned maxCores = 16);

    // ---- runtime sideband --------------------------------------------

    /** Register the payload for the next doorbell from @p coreId. */
    std::uint64_t registerPayload(int coreId, ExecPayload payload);

    /** Model the one-time PTE transfer for a data region (§3.6). */
    void registerRegion(Addr base, Addr size);

    /** Join a multi-instance region-coherence domain (§6.6). */
    void
    setRegionDirectory(RegionDirectory *dir, int instanceId)
    {
        regionDir_ = dir;
        instanceId_ = instanceId;
    }

    // ---- MmioDevice ---------------------------------------------------

    void mmioWrite(Addr addr, std::uint64_t data, int coreId) override;
    bool mmioReady(std::uint64_t token, int coreId) override;

    // ---- simulation ----------------------------------------------------

    /** Port the LLC's range router steers SPD-region lines to. */
    cache::CachePort &spdPort() { return spdPort_; }

    void tick();

    /** Nothing queued, executing or awaiting the scratchpad port. */
    bool drained() const;

    /**
     * Panic unless a drained unit left nothing behind: every tile
     * ready, every registered instruction retired, the Row Table
     * empty. Run once per System::run, never per cycle.
     */
    void auditDrained() const;

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    std::vector<PortRef>
    portRefs() const override
    {
        return {{llcPort_.name(), llcPort_.bound()}};
    }

    /**
     * Tick contract (see DESIGN.md §4c): now + 1 while any unit is
     * busy or an instruction waits for dispatch; else the scratchpad
     * queue head (SPD entries share one fixed latency, so it is the
     * earliest), or kNeverCycle when only a doorbell can wake us.
     */
    Cycle nextEventAt() const;

    /**
     * A busy unit that has made no progress (no dispatch, fill, TLB
     * walk step, request sent, response taken, element processed or
     * retire) for this many cycles is wedged: tick() dx_fatals with
     * debugDump() instead of spinning to the run's cycle limit.
     */
    static constexpr Cycle kWedgeCycles = Cycle{1} << 24;

    /** Closed-form advance over @p n idle cycles: nothing accrues. */
    void skipCycles(Cycle n) { now_ += n; }

    /** Tile ready bit (true = no in-flight instruction uses it). */
    bool tileReady(unsigned tile) const;

    const Stats &stats() const { return stats_; }
    const Dx100Config &config() const { return cfg_; }

    /** Render unit/queue state for debugging. */
    std::string debugDump() const;

  private:
    // ---- scoreboard -----------------------------------------------------

    /**
     * Per-instruction element progress, the model of the paper's
     * scratchpad *finish bits* (§3.5): a producer publishes how many
     * destination elements are architecturally complete (as an
     * in-order prefix approximation), and consumers of its tiles gate
     * their element consumption on it. This is what lets the Indirect
     * unit start filling from an index tile while the Stream unit is
     * still loading it.
     */
    struct Progress
    {
        std::uint32_t prefix = 0;
        std::uint32_t total = 0;
    };
    using ProgressPtr = std::shared_ptr<Progress>;

    /** The instruction a functional unit executes; valid = busy. */
    struct Active
    {
        bool valid = false;
        ExecPayload payload;
        std::uint64_t destMask = 0;
        std::uint64_t srcMask = 0;
        ProgressPtr progress;               //!< this instr's dest progress
        std::vector<ProgressPtr> srcGates;  //!< producers still running
    };

    /** Elements of its sources this instruction may consume so far. */
    static std::uint32_t gateLimit(const Active &a);

    /** The four functional units (§3); indexes active_. */
    enum UnitKind : unsigned
    {
        kStream,
        kIndirect,
        kAlu,
        kRange,
    };

    static UnitKind unitFor(Opcode op);
    /** Stores and RMWs, which need write ownership of their region. */
    static bool writesRegion(Opcode op);
    bool anyBusy() const;
    std::uint64_t tileMaskDest(const Instruction &i) const;
    std::uint64_t tileMaskSrc(const Instruction &i) const;

    void tryDispatch();
    void dispatchTo(UnitKind unit, ExecPayload &&payload);
    void retire(UnitKind unit);
    void invalidateTileLines(unsigned tile);

    // ---- stream unit ----------------------------------------------------

    struct StreamSink : public cache::CacheRespSink
    {
        Dx100 *owner = nullptr;
        void complete(const std::uint64_t &tag) override;
    };

    struct StreamUnit
    {
        std::vector<Addr> lines;
        std::size_t issuePos = 0;
        unsigned outstanding = 0;
        unsigned linesDone = 0;
        bool isStore = false;
    };

    void streamStart(StreamUnit &u);
    void streamTick(StreamUnit &u);

    // ---- indirect unit --------------------------------------------------

    /** Column responses, tagged by handle, from the LLC (H bit set)
     *  or straight from DRAM. */
    struct IndirectSink : public cache::CacheRespSink
    {
        Dx100 *owner = nullptr;
        bool viaCache = false;
        void complete(const std::uint64_t &tag) override;
    };

    struct IndirectUnit
    {
        std::uint32_t n = 0;
        std::uint32_t fillPos = 0;
        bool fillBlocked = false;
        unsigned tlbStall = 0;
        std::uint32_t wordsDone = 0;
        std::uint32_t skippedAtFill = 0; //!< condition-false elements
        std::vector<Addr> lineOfHandle;
        std::deque<std::pair<IndirectTables::ColHandle, bool>> responses;
        std::deque<std::pair<Addr, bool>> pendingWrites; //!< (line, viaCache)
        std::vector<unsigned> rrPtr; //!< per-channel slice round-robin
        unsigned outstandingReads = 0;

        bool needsWriteback = false; //!< IST/IRMW
    };

    void indirectStart(IndirectUnit &u);
    void indirectTick(IndirectUnit &u);
    void indirectFill(IndirectUnit &u);
    void indirectRequests(IndirectUnit &u);
    void indirectResponses(IndirectUnit &u);
    void indirectWrites(IndirectUnit &u);
    bool indirectDone(const IndirectUnit &u) const;

    // ---- scratchpad port -------------------------------------------------

    struct SpdPort : public cache::CachePort
    {
        Dx100 *owner = nullptr;
        std::deque<std::pair<Cycle, cache::CacheReq>> queue;

        bool canAccept(const cache::CacheReq &req) const override;
        void request(const cache::CacheReq &req) override;
    };

    void spdTick();
    void markSpdCached(Addr addr);
    unsigned tileOfSpdAddr(Addr addr) const;

    const Dx100Config cfg_;
    mem::DramSystem &dram_;
    //! Cache interface (may stay unbound in unit tests).
    PortSlot<cache::CacheReq> llcPort_{"llc"};
    CoherencyAgent agent_;
    Tlb tlb_;
    RegionDirectory *regionDir_ = nullptr;
    int instanceId_ = 0;

    Cycle now_ = 0;
    Cycle lastProgress_ = 0; //!< last cycle any unit made progress
    void progressed() { lastProgress_ = now_; }

    // Doorbell assembly + sideband payloads, per core.
    struct Doorbell
    {
        std::array<std::uint64_t, 3> words{};
        unsigned have = 0;
    };
    std::vector<Doorbell> doorbells_;
    std::vector<std::deque<ExecPayload>> sideband_;

    std::deque<ExecPayload> inputQueue_;
    std::vector<std::uint64_t> regs_;
    std::vector<bool> tileReady_;
    std::vector<ProgressPtr> tileProgress_; //!< last writer, per tile
    std::vector<bool> retired_;
    std::uint64_t nextId_ = 1;

    // ---- fixed-throughput units (ALU, Range Fuser) ------------------------

    void timedTick(UnitKind kind, std::uint64_t &processed);

    std::array<Active, 4> active_; //!< indexed by UnitKind
    StreamUnit stream_;
    IndirectUnit indirect_;
    std::uint64_t aluProcessed_ = 0;   //!< input elements consumed
    std::uint64_t rangeProcessed_ = 0; //!< input elements consumed
    IndirectTables tables_;

    StreamSink streamSink_;
    IndirectSink llcSink_;
    IndirectSink dramSink_;
    SpdPort spdPort_;

    //!< SPD lines the cores may hold, per tile.
    std::vector<std::vector<bool>> spdCached_;

    Stats stats_;
};

} // namespace dx::dx100

#endif // DX_DX100_DX100_HH
