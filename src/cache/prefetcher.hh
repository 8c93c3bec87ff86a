/**
 * @file
 * Prefetcher interface and the per-PC stride prefetcher used by every
 * cache level in the baseline configuration (paper Table 3).
 */

#ifndef DX_CACHE_PREFETCHER_HH
#define DX_CACHE_PREFETCHER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/cache_if.hh"
#include "common/types.hh"

namespace dx::cache
{

/** Observes demand traffic at a cache and proposes prefetch lines. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Called for every demand access processed by the cache. */
    virtual void observe(const CacheReq &req, bool miss) = 0;

    /** Pop the next prefetch candidate line; false if none pending. */
    virtual bool nextPrefetch(Addr &line) = 0;

    /**
     * True while prefetch candidates are queued. Part of the cache's
     * nextEventAt()/drained() contract: a cache with a pending
     * prefetcher is neither quiet (issuePrefetches would pop) nor
     * drained (a run must not terminate with candidates still queued).
     */
    virtual bool pending() const = 0;
};

/**
 * Classic per-PC stride prefetcher (reference prediction table).
 *
 * Detects constant-stride load streams per static instruction and issues
 * @c degree prefetches @c distance strides ahead once confidence builds.
 */
class StridePrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        unsigned tableSize = 64;
        unsigned degree = 2;     //!< prefetches per trigger
        unsigned distance = 8;   //!< lines (or strides) ahead of demand
        int confidenceThreshold = 2;
        unsigned queueMax = 32;
    };

    StridePrefetcher() : StridePrefetcher(Config{}) {}
    explicit StridePrefetcher(const Config &cfg);

    void observe(const CacheReq &req, bool miss) override;
    bool nextPrefetch(Addr &line) override;
    bool pending() const override { return !queue_.empty(); }

  private:
    struct Entry
    {
        std::uint16_t pc = 0;
        bool valid = false;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        int confidence = 0;
        Addr lastIssued = 0;
    };

    Entry &entryFor(std::uint16_t pc);

    Config cfg_;
    std::vector<Entry> table_;
    std::deque<Addr> queue_;
};

} // namespace dx::cache

#endif // DX_CACHE_PREFETCHER_HH
