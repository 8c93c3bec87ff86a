/**
 * @file
 * Coarse-grained region coherence between DX100 instances (paper
 * §6.6, core-multiplexing design).
 *
 * Each array region (identified by its base address, which the
 * instructions carry) obeys a Single-Writer invariant across
 * instances: an instance must own a region before dispatching a store
 * or RMW instruction into it, ownership transfer costs a fixed
 * latency, and a region is locked while the owner has such
 * instructions in flight. The protocol is independent of the core
 * coherence fabric, exactly as the paper describes.
 */

#ifndef DX_DX100_REGION_DIRECTORY_HH
#define DX_DX100_REGION_DIRECTORY_HH

#include <unordered_map>

#include "common/stats.hh"
#include "common/types.hh"

namespace dx::dx100
{

class RegionDirectory
{
  public:
    explicit RegionDirectory(unsigned transferLatency = 150)
        : transferLatency_(transferLatency)
    {}

    /**
     * Try to acquire write ownership of @p region for @p instance at
     * time @p now. Returns true when the instance may dispatch; false
     * means "retry later" (transfer in progress or the current owner
     * still has writes in flight).
     */
    bool
    tryAcquireWrite(int instance, Addr region, Cycle now)
    {
        Entry &e = entries_[region];
        if (e.owner == instance) {
            ++e.inFlight;
            return true;
        }
        if (e.inFlight > 0)
            return false; // current owner still writing
        if (e.owner >= 0) {
            // Start (or wait out) an ownership transfer.
            if (e.pendingOwner != instance) {
                e.pendingOwner = instance;
                e.transferDone = now + transferLatency_;
                ++transfers_;
                return false;
            }
            if (now < e.transferDone)
                return false;
        }
        e.owner = instance;
        e.pendingOwner = -1;
        ++e.inFlight;
        return true;
    }

    /** A write instruction by the owner retired. */
    void
    releaseWrite(int instance, Addr region)
    {
        Entry &e = entries_[region];
        if (e.owner == instance && e.inFlight > 0)
            --e.inFlight;
    }

    std::uint64_t transfers() const { return transfers_.value(); }

  private:
    struct Entry
    {
        int owner = -1;
        int pendingOwner = -1;
        Cycle transferDone = 0;
        unsigned inFlight = 0;
    };

    unsigned transferLatency_;
    std::unordered_map<Addr, Entry> entries_;
    Counter transfers_;
};

} // namespace dx::dx100

#endif // DX_DX100_REGION_DIRECTORY_HH
