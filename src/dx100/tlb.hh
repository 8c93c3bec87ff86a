/**
 * @file
 * DX100's small TLB over huge pages (paper §3.6).
 *
 * Applications map DX100-visible arrays with 2 MiB huge pages and the
 * runtime transfers the page-table entries once per region of interest,
 * so a 256-entry TLB covers working sets of up to 512 MiB. Lookups of an
 * untransferred page model a PTE walk penalty and then install the entry.
 */

#ifndef DX_DX100_TLB_HH
#define DX_DX100_TLB_HH

#include <unordered_set>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dx::dx100
{

class Tlb
{
  public:
    static constexpr unsigned kPageShift = 21; //!< 2 MiB huge pages

    explicit Tlb(unsigned entries, unsigned missPenalty)
        : entries_(entries), missPenalty_(missPenalty)
    {
        // Eviction keeps the page just installed, so it needs a second.
        dx_assert(entries > 0, "a TLB needs at least one entry");
    }

    /** Pre-install PTEs covering [base, base + size). */
    void
    installRange(Addr base, Addr size)
    {
        const Addr first = base >> kPageShift;
        const Addr last = (base + size - 1) >> kPageShift;
        for (Addr p = first; p <= last; ++p) {
            pages_.insert(p);
            evictIfFull(p);
        }
    }

    /**
     * Translate an address. Returns the extra latency in cycles
     * (0 on a hit, the PTE-walk penalty on a miss, which also installs
     * the entry).
     */
    unsigned
    lookup(Addr addr)
    {
        const Addr page = addr >> kPageShift;
        if (pages_.count(page)) {
            ++hits_;
            return 0;
        }
        ++misses_;
        pages_.insert(page);
        evictIfFull(page);
        return missPenalty_;
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    /** Capacity model: drop an arbitrary entry, but never the page
     *  that was just installed (evicting it would livelock the
     *  requester in a miss-install-evict loop). */
    void
    evictIfFull(Addr justInstalled)
    {
        if (pages_.size() <= entries_)
            return;
        auto it = pages_.begin();
        if (*it == justInstalled)
            ++it;
        pages_.erase(it);
    }

    unsigned entries_;
    unsigned missPenalty_;
    std::unordered_set<Addr> pages_;
    Counter hits_;
    Counter misses_;
};

} // namespace dx::dx100

#endif // DX_DX100_TLB_HH
