/**
 * @file
 * A cycle-level set-associative write-back cache with MSHRs.
 *
 * Used for the private L1D/L2 and the shared LLC. Misses allocate MSHRs
 * (coalescing secondary accesses as targets) and forward downstream
 * through a CachePort. The LLC acts as the inclusive root: evictions
 * back-invalidate the private levels, which also gives DX100 an exact
 * one-bit "is this line cached anywhere?" snoop (the H bit of §3.6).
 */

#ifndef DX_CACHE_CACHE_HH
#define DX_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_if.hh"
#include "cache/prefetcher.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/component.hh"

namespace dx::cache
{

class Cache final : public Component,
                    public CachePort,
                    public CacheRespSink,
                    public SnoopPort
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 32 * 1024;
        unsigned assoc = 8;
        unsigned latency = 4;        //!< lookup latency in core cycles
        unsigned mshrs = 16;
        unsigned targetsPerMshr = 8;
        unsigned queueSize = 16;     //!< input queue entries
        unsigned width = 2;          //!< lookups per cycle
        bool inclusiveRoot = false;  //!< back-invalidate children on evict
    };

    struct Stats
    {
        Counter demandHits;    //!< CPU demand only
        Counter demandMisses;  //!< CPU demand only
        Counter demandAccesses;
        Counter dxHits;        //!< DX100-originated traffic
        Counter dxMisses;
        Counter mshrCoalesced;
        Counter writebacks;
        Counter evictions;
        Counter backInvalidates;
        Counter prefetchesIssued;
        Counter prefetchesUseful; //!< demand hit on a prefetched line
        Counter stallMshrFull;
        Counter stallDownstream;
    };

    Cache(const Config &cfg, CachePort *downstream);

    /** Attach a prefetcher (optional). */
    void setPrefetcher(std::unique_ptr<Prefetcher> pf);

    /** Register an upper-level cache for inclusive back-invalidation. */
    void addChild(Cache *child) { children_.push_back(child); }

    // CachePort (upstream-facing). One input queue: admission ignores
    // the request.
    bool canAccept(const CacheReq &req) const override;
    void request(const CacheReq &req) override;

    // CacheRespSink (downstream fill responses).
    void complete(const std::uint64_t &tag) override;

    /** The downstream port released an entry (Component::departure). */
    void departure() override;

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    std::vector<PortRef>
    portRefs() const override
    {
        return {{downstream_.name(), downstream_.bound()}};
    }

    /** Advance one core cycle. */
    void tick();

    /**
     * Tick contract (see DESIGN.md §4c): the earliest cycle tick()
     * could change more than the closed-form per-cycle stats, or
     * now + 1 when the next tick must run. Quiet means no processable
     * queue entry, no writeback awaiting drain and no prefetch
     * candidate. A due head whose last tick stalled (stall_) is quiet
     * until the event that can end that stall clears it: a fill for
     * kMshrFull, a downstream departure for kDownstream. Each retry
     * in between would only bump the recorded stall counter.
     */
    Cycle nextEventAt() const;

    /**
     * Closed-form advance over @p n cycles nextEventAt() proved quiet:
     * books @p n cycles of the stall the last tick recorded.
     */
    void skipCycles(Cycle n);

    /** True if any request, MSHR or writeback is in flight. */
    bool busy() const;

    /**
     * Nothing in flight *and* no prefetch candidates queued, so a run
     * cannot end with requests still pending.
     */
    bool drained() const;

    /**
     * Panic unless the redundant MSHR indexes agree with a drained
     * cache: every line-index slot empty and every MSHR free. Checked
     * once per run, after the drain, never per cycle.
     */
    void auditDrained() const;

    // SnoopPort: residency and invalidation (DX100's H bit).
    bool containsLine(Addr line) const override;
    bool invalidateLine(Addr line) override;

    /** Tag-store residency only (no in-flight fills). */
    bool tagsHold(Addr line) const;

    /**
     * Pre-install a clean line (cache warm-up for regions that are
     * architecturally resident when the region of interest begins).
     */
    void warmInsert(Addr line) { installLine(lineAlign(line), false,
                                             false); }

    const Stats &stats() const { return stats_; }
    const Config &config() const { return cfg_; }
    Prefetcher *prefetcher() { return prefetcher_.get(); }

    /** Render in-flight state (queues, MSHRs) for debugging. */
    std::string debugDump() const;

  private:
    /** Replacement and state bits of one way; its tag is in tags_. */
    struct WayMeta
    {
        std::uint64_t lastUse = 0;
        bool dirty = false;
        bool prefetched = false;
    };

    struct Target
    {
        std::uint64_t tag;
        CacheRespSink *sink;
        bool write;
    };

    /** A live miss; liveness is the entry's bit in freeMshrs_. */
    struct Mshr
    {
        Addr line = 0;
        bool dirtyOnFill = false;
        bool prefetch = false;
        std::vector<Target> targets;
    };

    struct Pending
    {
        CacheReq req;
        Cycle readyAt;
    };

    /** One slot of the line -> MSHR index; kEmptySlot marks a hole. */
    struct IndexSlot
    {
        Addr line;
        unsigned mshr;
    };
    //! Marks an index hole and an invalid way. Never line-aligned, so
    //! it cannot collide with a real line.
    static constexpr Addr kEmptySlot = ~Addr{0};
    //! findWay()'s answer for a line the tags do not hold.
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** First way of @p line's set in tags_ and meta_. */
    std::size_t setBase(Addr line) const;
    /** Way holding @p line (line-aligned), or kNoWay: a tag-only scan. */
    std::size_t findWay(Addr line) const;

    /** MSHR tracking @p line (line-aligned), or -1: one index probe. */
    int mshrFor(Addr line) const;

    /**
     * Lowest free MSHR, or -1. The index is the tag sent downstream,
     * so lowest-first keeps the tag stream a pure function of the
     * request stream.
     */
    int freeMshr() const;
    bool mshrLive(unsigned idx) const;

    /** Claim free MSHR @p idx for @p line and index it. */
    Mshr &allocMshr(unsigned idx, Addr line);

    /** Home slot of @p line in index_ (Fibonacci hash). */
    unsigned indexHome(Addr line) const;
    /** Drop @p line from index_, backward-shifting its probe run. */
    void indexErase(Addr line);

    /** Install a line, evicting the victim; may queue a writeback. */
    void installLine(Addr line, bool dirty, bool prefetched);

    /** Why a queued request could not be processed this cycle. */
    enum class Stall : std::uint8_t
    {
        kNone,
        kMshrFull,
        kDownstream,
    };

    /**
     * Process one queued request; anything but kNone is a structural
     * stall that leaves it at the head. The only code that classifies
     * the head.
     */
    Stall processRequest(const CacheReq &req);

    /** Book @p n cycles of stall_ to its stall counter. */
    void bookStall(Cycle n);

    void issuePrefetches();
    void drainWritebacks();

    const Pending &queueHead() const { return queue_[queueFront_]; }

    const Config cfg_;
    PortSlot<CacheReq> downstream_{"downstream"};
    std::unique_ptr<Prefetcher> prefetcher_;
    std::vector<Cache *> children_;

    unsigned numSets_;
    //! numSets_ x assoc, set-major: each way's line, or kEmptySlot.
    std::vector<Addr> tags_;
    std::vector<WayMeta> meta_; //!< parallel to tags_
    std::vector<Mshr> mshrs_;
    std::vector<std::uint64_t> freeMshrs_; //!< bit set = MSHR free
    unsigned mshrsInUse_ = 0; //!< live entries in mshrs_ (O(1) busy())
    unsigned indexUsed_ = 0;  //!< occupied index_ slots (== mshrsInUse_)
    //! Open-addressed line -> MSHR map, linear probing, at most half
    //! full (power of two >= 2 x mshrs), so probes stay short.
    std::vector<IndexSlot> index_;
    unsigned indexShift_; //!< 64 - log2(index_.size())
    //! Input queue: a ring of cfg_.queueSize entries.
    std::vector<Pending> queue_;
    unsigned queueFront_ = 0; //!< slot of the oldest entry
    unsigned queueLen_ = 0;
    std::deque<Addr> writebacks_; //!< dirty victim lines awaiting drain

    //! The head's stall in the last tick (see nextEventAt()).
    Stall stall_ = Stall::kNone;

    Cycle now_ = 0;
    std::uint64_t useCounter_ = 0;
    Stats stats_;
};

} // namespace dx::cache

#endif // DX_CACHE_CACHE_HH
