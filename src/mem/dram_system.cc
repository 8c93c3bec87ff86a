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
        channels_.push_back(std::make_unique<MemoryController>(
            cfg_.ctrl, c, cfg_.clockRatio));
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
DramSystem::addClient(Component &client)
{
    for (auto &ch : channels_)
        ch->addClient(client);
}

void
DramSystem::access(Addr lineAddr, bool write, std::uint64_t tag,
                   Completion<std::uint64_t> *sink)
{
    MemRequest req;
    req.write = write;
    req.tag = tag;
    req.sink = sink;
    req.coord = map_.decompose(lineAddr);
    channels_[req.coord.channel]->enqueue(req);
}

void
DramSystem::tick()
{
    for (auto &ch : channels_)
        ch->tick();
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
    g.value("dequeues", std::function<std::uint64_t()>([this] {
                std::uint64_t n = 0;
                for (const auto &ch : channels_)
                    n += ch->dequeueCount();
                return n;
            }));
}

} // namespace dx::mem
