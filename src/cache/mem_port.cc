#include "cache/mem_port.hh"

#include "common/logging.hh"

namespace dx::cache
{

bool
DramPort::canAccept() const
{
    // Conservative: every channel must have room for a read and a write,
    // since the caller does not tell us the target channel in advance.
    for (unsigned c = 0; c < dram_.channels(); ++c) {
        if (!dram_.channel(c).canAccept(false) ||
            !dram_.channel(c).canAccept(true)) {
            return false;
        }
    }
    return true;
}

bool
DramPort::canAcceptReq(const CacheReq &req) const
{
    return dram_.canAccept(lineAlign(req.addr), req.write);
}

void
DramPort::request(const CacheReq &req)
{
    const Addr line = lineAlign(req.addr);
    if (req.write) {
        // Writebacks are fire-and-forget from the cache's perspective.
        dram_.access(line, true, req.origin, 0, nullptr);
        return;
    }

    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot] = req;
    dram_.access(line, false, req.origin, slot, this);
}

void
DramPort::complete(const mem::MemRequest &mreq)
{
    dx_assert(!mreq.write, "unexpected write response at DramPort");
    const auto slot = static_cast<std::uint32_t>(mreq.tag);
    CacheReq req = slots_[slot];
    freeSlots_.push_back(slot);
    if (req.sink)
        req.sink->complete(req.tag);
}

bool
RangeRouter::canAccept() const
{
    if (!fallback_->canAccept())
        return false;
    for (const auto &r : ranges_) {
        if (!r.port->canAccept())
            return false;
    }
    return true;
}

bool
RangeRouter::canAcceptReq(const CacheReq &req) const
{
    for (const auto &r : ranges_) {
        if (req.addr >= r.begin && req.addr < r.end)
            return r.port->canAcceptReq(req);
    }
    return fallback_->canAcceptReq(req);
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
