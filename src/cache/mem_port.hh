/**
 * @file
 * Memory-side ports below the LLC: the DRAM adapter and an address-range
 * router that steers scratchpad-region lines to DX100 instead of DRAM.
 */

#ifndef DX_CACHE_MEM_PORT_HH
#define DX_CACHE_MEM_PORT_HH

#include <cstdint>
#include <vector>

#include "cache/cache_if.hh"
#include "mem/dram_system.hh"

namespace dx::cache
{

/** Adapts the CachePort protocol onto the DRAM system. */
class DramPort : public CachePort, public mem::MemRespSink
{
  public:
    explicit DramPort(mem::DramSystem &dram) : dram_(dram) {}

    bool canAccept() const override;
    bool canAcceptReq(const CacheReq &req) const override;
    void request(const CacheReq &req) override;
    void complete(const mem::MemRequest &req) override;

    /** Admission is gated on controller buffers; report their drains. */
    const std::uint64_t *
    departures() const override
    {
        return dram_.dequeueCountAddr();
    }

    bool busy() const { return inflight_ > 0; }

  private:
    mem::DramSystem &dram_;
    std::vector<CacheReq> slots_;
    std::vector<std::uint32_t> freeSlots_;
    unsigned inflight_ = 0;
};

/**
 * Steers requests by address range: lines inside [base, base+size) go to
 * the `special` port (DX100's scratchpad), everything else to DRAM.
 */
class RangeRouter : public CachePort
{
  public:
    RangeRouter(CachePort &fallback) : fallback_(&fallback) {}

    void
    addRange(Addr base, Addr size, CachePort *port)
    {
        ranges_.push_back({base, base + size, port});
    }

    bool canAccept() const override;
    bool canAcceptReq(const CacheReq &req) const override;
    void request(const CacheReq &req) override;

    /**
     * The fallback's departures while no range is routed; none once
     * one is, since the routed ports are counted apart.
     */
    const std::uint64_t *
    departures() const override
    {
        return ranges_.empty() ? fallback_->departures() : nullptr;
    }

  private:
    struct Range
    {
        Addr begin;
        Addr end;
        CachePort *port;
    };

    CachePort *fallback_;
    std::vector<Range> ranges_;
};

} // namespace dx::cache

#endif // DX_CACHE_MEM_PORT_HH
