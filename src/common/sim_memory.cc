#include "common/sim_memory.hh"

#include <algorithm>

namespace dx
{

std::uint8_t *
SimMemory::frameFor(Addr addr)
{
    dx_assert(addr < kAddrLimit, "SimMemory write at address ", addr,
              " is past the ", kAddrLimit, "-byte bound");
    const Addr idx = addr >> kFrameShift;
    if (idx >= frames_.size())
        frames_.resize(idx + 1);
    Frame &f = frames_[idx];
    if (!f) {
        f = std::make_unique<std::uint8_t[]>(kFrameBytes);
        ++framesAllocated_;
    }
    return f.get();
}

void
SimMemory::readBytes(Addr addr, void *dst, std::size_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        const Addr off = addr & (kFrameBytes - 1);
        const std::size_t chunk =
            std::min<std::size_t>(len, kFrameBytes - off);
        if (const std::uint8_t *f = frame(addr))
            std::memcpy(out, f + off, chunk);
        else
            std::memset(out, 0, chunk);
        out += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
SimMemory::writeBytes(Addr addr, const void *src, std::size_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const Addr off = addr & (kFrameBytes - 1);
        const std::size_t chunk =
            std::min<std::size_t>(len, kFrameBytes - off);
        std::memcpy(frameFor(addr) + off, in, chunk);
        in += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
SimMemory::zero(Addr addr, std::size_t len)
{
    while (len > 0) {
        const Addr off = addr & (kFrameBytes - 1);
        const std::size_t chunk =
            std::min<std::size_t>(len, kFrameBytes - off);
        std::memset(frameFor(addr) + off, 0, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace dx
