/**
 * @file
 * Memory-side ports below the LLC: the DRAM adapter and an address-range
 * router that steers scratchpad-region lines to DX100 instead of DRAM.
 */

#ifndef DX_CACHE_MEM_PORT_HH
#define DX_CACHE_MEM_PORT_HH

#include <vector>

#include "cache/cache_if.hh"
#include "mem/dram_system.hh"

namespace dx::cache
{

/**
 * Adapts the CachePort protocol onto the DRAM system: a request asks
 * and takes its own channel's queue, and the channel completes the
 * requester's sink with the requester's tag.
 */
class DramPort : public CachePort
{
  public:
    explicit DramPort(mem::DramSystem &dram) : dram_(dram) {}

    bool canAccept(const CacheReq &req) const override;
    void request(const CacheReq &req) override;

    /** Admission is gated on controller buffers; wake on their drains. */
    void addClient(Component &client) override { dram_.addClient(client); }

  private:
    mem::DramSystem &dram_;
};

/**
 * Steers requests by address range: lines inside [base, base+size) go to
 * the `special` port (DX100's scratchpad), everything else to DRAM.
 */
class RangeRouter : public CachePort
{
  public:
    RangeRouter(CachePort &fallback) : fallback_(&fallback) {}

    /** Route [base, base+size) to @p port; an entry leaving it wakes
     *  every client of this router, including ones bound before. */
    void
    addRange(Addr base, Addr size, CachePort *port)
    {
        ranges_.push_back({base, base + size, port});
        for (Component *c : clients_)
            port->addClient(*c);
    }

    bool canAccept(const CacheReq &req) const override;
    void request(const CacheReq &req) override;

    /** A client waits on the fallback and on every routed port. */
    void
    addClient(Component &client) override
    {
        CachePort::addClient(client);
        fallback_->addClient(client);
        for (const Range &r : ranges_)
            r.port->addClient(client);
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
