#include "mem/dram_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::mem
{

DramSystem::DramSystem(const Config &cfg)
    : Component("dram"), cfg_(cfg), map_(cfg.ctrl.geom, cfg.order)
{
    for (unsigned c = 0; c < cfg_.ctrl.geom.channels; ++c) {
        channels_.push_back(
            std::make_unique<MemoryController>(cfg_.ctrl, c));
        adopt(*channels_.back());
    }
}

unsigned
DramSystem::channelOf(Addr addr) const
{
    return map_.decompose(addr).channel;
}

bool
DramSystem::canAccept(Addr lineAddr, bool write) const
{
    return channels_[channelOf(lineAddr)]->canAccept(write);
}

void
DramSystem::access(Addr lineAddr, bool write, Origin origin,
                   std::uint64_t tag, MemRespSink *sink)
{
    touch(); // the enqueue stamps arrival with the channel's clock
    MemRequest req;
    req.lineAddr = lineAlign(lineAddr);
    req.write = write;
    req.origin = origin;
    req.tag = tag;
    req.sink = sink;
    req.coord = map_.decompose(req.lineAddr);
    channels_[req.coord.channel]->enqueue(req);
}

void
DramSystem::advance(bool skipQuiet)
{
    ++now_;
    if (++phase_ < cfg_.clockRatio)
        return; // off-phase core cycle: the controllers do not run
    phase_ = 0;
    const std::uint64_t before = totalDequeues_;
    for (auto &ch : channels_) {
        if (skipQuiet && ch->nextEventAt() > ch->now() + 1) {
            ch->skipCycles(1);
            continue;
        }
        const std::uint64_t d = ch->dequeueCount();
        ch->tick();
        totalDequeues_ += ch->dequeueCount() - d;
    }
    if (totalDequeues_ != before) {
        for (Component *c : clients_)
            c->departure();
    }
}

Cycle
DramSystem::nextEventAt() const
{
    Cycle best = kNeverCycle;
    for (const auto &ch : channels_) {
        const Cycle ev = ch->nextEventAt();
        if (ev == kNeverCycle)
            continue;
        // Controller tick #j (j >= 1) from here lands on core cycle
        // now_ + (clockRatio - phase_) + (j - 1) * clockRatio.
        const Cycle j = ev - ch->now();
        best = std::min(best, now_ + (cfg_.clockRatio - phase_) +
                                  (j - 1) * cfg_.clockRatio);
    }
    return best;
}

void
DramSystem::skipCycles(Cycle n)
{
    now_ += n;
    const Cycle ticks = (phase_ + n) / cfg_.clockRatio;
    phase_ = static_cast<unsigned>((phase_ + n) % cfg_.clockRatio);
    if (ticks == 0)
        return;
    for (auto &ch : channels_)
        ch->skipCycles(ticks);
}

bool
DramSystem::drained() const
{
    for (const auto &ch : channels_) {
        if (!ch->drained())
            return false;
    }
    return true;
}

double
DramSystem::busUtilization() const
{
    std::uint64_t busy = 0;
    std::uint64_t cycles = 0;
    for (const auto &ch : channels_) {
        busy += ch->stats().busBusyCycles.value();
        cycles += ch->stats().cycles.value();
    }
    return cycles ? static_cast<double>(busy) / cycles : 0.0;
}

double
DramSystem::rowHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const auto &ch : channels_) {
        hits += ch->stats().rowHits.value();
        total += ch->stats().rowHits.value() +
                 ch->stats().rowMisses.value();
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
DramSystem::queueOccupancy() const
{
    double occ = 0.0;
    for (const auto &ch : channels_) {
        const auto &s = ch->stats();
        if (s.cycles.value() == 0)
            continue;
        const double cap = cfg_.ctrl.readQueueSize +
                           cfg_.ctrl.writeQueueSize;
        occ += static_cast<double>(s.occupancyAccum) /
               (static_cast<double>(s.cycles.value()) * cap);
    }
    return channels_.empty() ? 0.0 : occ / channels_.size();
}

std::uint64_t
DramSystem::linesTransferred() const
{
    std::uint64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->stats().readsServed.value() +
             ch->stats().writesServed.value();
    return n;
}

double
DramSystem::peakBytesPerCoreCycle() const
{
    // Each channel moves one line per tBL controller cycles at peak.
    const double perChannel =
        static_cast<double>(kLineBytes) /
        (cfg_.ctrl.timings.tBL * cfg_.clockRatio);
    return perChannel * channels_.size();
}

void
DramSystem::registerStats(StatRegistry &reg) const
{
    auto g = reg.group(path());
    g.gauge("busUtilization", [this] { return busUtilization(); });
    g.gauge("rowHitRate", [this] { return rowHitRate(); });
    g.gauge("queueOccupancy", [this] { return queueOccupancy(); });
    g.value("linesTransferred",
            std::function<std::uint64_t()>(
                [this] { return linesTransferred(); }));
    g.value("dequeues", totalDequeues_);
}

} // namespace dx::mem
