#include "cache/mem_port.hh"

#include "common/logging.hh"

namespace dx::cache
{

bool
DramPort::canAccept(const CacheReq &req) const
{
    return dram_.canAccept(req.addr, req.write);
}

void
DramPort::request(const CacheReq &req)
{
    // No cache asks for a write's completion: writebacks are
    // fire-and-forget, so only reads ever complete.
    dx_assert(!req.write || !req.sink, "DRAM write with a sink");
    dram_.access(req.addr, req.write, req.tag, req.sink);
}

bool
RangeRouter::canAccept(const CacheReq &req) const
{
    for (const auto &r : ranges_) {
        if (req.addr >= r.begin && req.addr < r.end)
            return r.port->canAccept(req);
    }
    return fallback_->canAccept(req);
}

void
RangeRouter::request(const CacheReq &req)
{
    for (const auto &r : ranges_) {
        if (req.addr >= r.begin && req.addr < r.end) {
            r.port->request(req);
            return;
        }
    }
    fallback_->request(req);
}

} // namespace dx::cache
