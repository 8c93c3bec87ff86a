#include "mem/controller.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::mem
{

namespace
{

constexpr std::uint64_t
bankBit(unsigned b)
{
    return std::uint64_t{1} << b;
}

/** Oldest entry of @p queue queued for one of @p banks (non-empty). */
template <typename Queue>
auto
oldestIn(Queue &queue, std::uint64_t banks)
{
    const auto it = std::find_if(
        queue.begin(), queue.end(),
        [banks](const auto &e) { return (banks & bankBit(e.bank)) != 0; });
    dx_assert(it != queue.end(), "bank queued count without an entry");
    return it;
}

} // namespace

MemoryController::MemoryController(const Config &cfg, unsigned channelId,
                                   unsigned clockRatio)
    : Component("ch" + std::to_string(channelId)),
      cfg_(cfg), channel_(channelId), ratio_(clockRatio),
      banks_(cfg.geom.banksPerChannel()),
      nextRefresh_(cfg.timings.tREFI)
{
    dx_assert(!banks_.empty() && banks_.size() <= 64,
              "a channel needs 1..64 banks (the bank masks are 64 bits)");
    dx_assert(ratio_ > 0, "a clock ratio is at least 1");
}

bool
MemoryController::canAccept(bool write) const
{
    return write ? writeQueue_.size() < cfg_.writeQueueSize
                 : readQueue_.size() < cfg_.readQueueSize;
}

void
MemoryController::enqueue(const MemRequest &req)
{
    touch(); // books the slept cycles' occupancy before the entry lands
    dx_assert(canAccept(req.write), "controller queue overflow");
    dx_assert(req.coord.channel == channel_, "request routed to wrong "
              "channel");
    Entry e;
    e.req = req;
    e.bank = static_cast<std::uint8_t>(req.coord.bankInChannel(cfg_.geom));
    (req.write ? writeQueue_ : readQueue_).push_back(e);

    Bank &bank = banks_[e.bank];
    if (bank.queued[req.write]++ == 0)
        busyBanks_[req.write] |= bankBit(e.bank);
    if (bank.openRow == static_cast<std::int64_t>(req.coord.row))
        ++bank.rowHits[req.write];

    // An enqueue only *adds* command candidates, so the cached hint
    // remains a conservative-early bound for everything already
    // queued; fold in a bound for the new entry instead of rescanning
    // the banks. Row-hit pinning is ignored here — it can only delay
    // the entry, and the hint may run early, never late.
    if (eventHintValid_) {
        Cycle ev;
        if (bank.openRow == static_cast<std::int64_t>(req.coord.row))
            ev = req.write ? bank.nextWr : bank.nextRd;
        else if (bank.openRow < 0)
            ev = std::max(bank.nextAct, fawReadyAt());
        else
            ev = bank.nextPre;
        if (wouldToggleWriteMode())
            ev = Cycle{0};
        eventHint_ = std::min(eventHint_, ev);
    }
}

bool
MemoryController::drained() const
{
    return readQueue_.empty() && writeQueue_.empty() && pending_.empty();
}

void
MemoryController::auditDrained() const
{
    dx_assert(busyBanks_[0] == 0 && busyBanks_[1] == 0, path(),
              ": busy-bank mask set at drain");
    for (const Bank &b : banks_) {
        dx_assert(b.queued[0] == 0 && b.queued[1] == 0 &&
                      b.rowHits[0] == 0 && b.rowHits[1] == 0,
                  path(), ": bank queue counts non-zero at drain");
    }
}

bool
MemoryController::deliverResponses()
{
    bool delivered = false;
    while (!pending_.empty() && pending_.front().ready <= now_) {
        const MemRequest req = pending_.front().req;
        pending_.pop_front();
        if (req.sink)
            req.sink->complete(req.tag);
        delivered = true;
    }
    return delivered;
}

bool
MemoryController::wouldToggleWriteMode() const
{
    if (!writeMode_) {
        // Enter write mode on the high watermark or when there is
        // nothing else to do. Read credits guarantee reads a burst of
        // service between write drains even when the write queue is
        // pinned full.
        const bool creditsSpent = readCredit_ == 0 ||
                                  readQueue_.empty();
        return (creditsSpent &&
                writeQueue_.size() >= cfg_.writeHiWatermark) ||
               (readQueue_.empty() && !writeQueue_.empty());
    }
    // Leave write mode at the low watermark, or after a bounded burst
    // when reads are waiting (fairness: a producer that refills the
    // write queue as fast as it drains must not starve reads).
    const bool drained = writeQueue_.size() <= cfg_.writeLoWatermark;
    const bool burstDone = writeBurst_ >= cfg_.writeBurstMax;
    return writeQueue_.empty() ||
           ((drained || burstDone) && !readQueue_.empty());
}

void
MemoryController::tick()
{
    if (++phase_ < ratio_)
        return; // off-phase core cycle: the controller does not run
    phase_ = 0;
    ++now_;
    ++stats_.cycles;
    stats_.occupancyAccum += readQueue_.size() + writeQueue_.size();

    // The event hint is in absolute cycles, so an unproductive tick
    // (nothing delivered, refreshed, toggled or issued — only the clock
    // and the per-cycle stats advanced) leaves it valid.
    bool productive = deliverResponses();

    if (tryRefresh()) {
        eventHintValid_ = false;
        return;
    }

    // Write-drain hysteresis (single source of truth with the
    // nextEventAt() hint: see wouldToggleWriteMode).
    if (wouldToggleWriteMode()) {
        if (!writeMode_) {
            writeMode_ = true;
            writeBurst_ = 0;
        } else {
            writeMode_ = false;
            readCredit_ = cfg_.writeBurstMax;
        }
        productive = true;
    }

    if (writeMode_) {
        productive |= tryIssueFrom(writeQueue_, true);
    } else {
        productive |= tryIssueFrom(readQueue_, false);
    }
    // A productive tick moved state the hint depends on. An
    // unproductive tick with an *overdue* hint means the early bound
    // fired spuriously (the hint may run early, never late) — drop it
    // too, or the now_+1 clamp in nextEventAt() would pin the channel
    // awake until the next productive tick.
    if (productive || (eventHintValid_ && eventHint_ <= now_))
        eventHintValid_ = false;
}

bool
MemoryController::tryRefresh()
{
    if (!cfg_.timings.refreshEnabled)
        return false;

    if (!refreshPending_ && now_ >= nextRefresh_)
        refreshPending_ = true;
    if (!refreshPending_)
        return false;

    // Close all open rows, one PRE per cycle, then issue REF once every
    // bank is precharged and its tRP has elapsed.
    bool allClosed = true;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        if (banks_[b].openRow >= 0) {
            allClosed = false;
            if (banks_[b].nextPre <= now_) {
                issuePre(b);
                return true;
            }
        }
    }
    if (!allClosed)
        return true; // stall issuing demand commands while draining

    Cycle ready = now_;
    for (const auto &bank : banks_)
        ready = std::max(ready, bank.nextAct);
    if (ready > now_)
        return true;

    for (auto &bank : banks_)
        bank.nextAct = now_ + cfg_.timings.tRFC;
    nextRefresh_ += cfg_.timings.tREFI;
    refreshPending_ = false;
    ++stats_.refCommands;
    return true;
}

bool
MemoryController::tryIssueFrom(std::vector<Entry> &queue, bool writes)
{
    if (tryColumn(queue, writes)) {
        if (writes)
            ++writeBurst_;
        else if (readCredit_ > 0)
            --readCredit_;
        return true;
    }
    if (tryActivate(queue, writes))
        return true;
    return tryPrecharge(queue, writes);
}

template <typename Pred>
std::uint64_t
MemoryController::banksWhere(bool writes, Pred pred) const
{
    std::uint64_t out = 0;
    for (std::uint64_t m = busyBanks_[writes]; m; m &= m - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        if (pred(banks_[b]))
            out |= bankBit(b);
    }
    return out;
}

bool
MemoryController::tryColumn(std::vector<Entry> &queue, bool writes)
{
    // Banks holding a queued row hit whose column timer has expired.
    const std::uint64_t ready = banksWhere(writes, [&](const Bank &b) {
        return b.rowHits[writes] && (writes ? b.nextWr : b.nextRd) <= now_;
    });
    if (!ready)
        return false;

    const auto it = std::find_if(queue.begin(), queue.end(),
                                 [&](const Entry &e) {
        return (ready & bankBit(e.bank)) &&
               banks_[e.bank].openRow ==
                   static_cast<std::int64_t>(e.req.coord.row);
    });
    dx_assert(it != queue.end(), "row-hit count without a hit entry");
    Entry &e = *it;
    Bank &bank = banks_[e.bank];

    if (writes)
        issueWrite(e);
    else
        issueRead(e);

    if (e.neededAct)
        ++stats_.rowMisses;
    else
        ++stats_.rowHits;

    --bank.rowHits[writes];
    if (--bank.queued[writes] == 0)
        busyBanks_[writes] &= ~bankBit(e.bank);
    queue.erase(it);
    ++dequeues_;
    for (Component *c : clients_)
        c->departure(); // a refused sender may now be admitted
    return true;
}

bool
MemoryController::tryActivate(std::vector<Entry> &queue, bool writes)
{
    if (fawReadyAt() > now_)
        return false;
    // Closed banks with queued entries whose ACT timer has expired.
    const std::uint64_t ready = banksWhere(writes, [&](const Bank &b) {
        return b.openRow < 0 && b.nextAct <= now_;
    });
    if (!ready)
        return false;

    const auto it = oldestIn(queue, ready);
    issueAct(it->bank, it->req.coord.row, it->req.coord.bankGroup);
    it->neededAct = true;
    // Sibling requests to the same (bank, row) become row hits and
    // need no flag; requests to other rows of this bank will conflict.
    return true;
}

bool
MemoryController::tryPrecharge(std::vector<Entry> &queue, bool writes)
{
    // Open banks whose every queued entry conflicts. FR-FCFS: a row
    // with a pending hit in the queue being served stays open. (Only
    // that queue: letting the idle queue's hits pin rows open
    // deadlocks the drain.)
    const std::uint64_t ready = banksWhere(writes, [&](const Bank &b) {
        return b.openRow >= 0 && b.rowHits[writes] == 0 &&
               b.nextPre <= now_;
    });
    if (!ready)
        return false;

    issuePre(oldestIn(queue, ready)->bank);
    ++stats_.rowConflicts;
    return true;
}

void
MemoryController::issueAct(unsigned b, std::uint32_t row,
                           std::uint16_t bankGroup)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[b];
    bank.openRow = row;
    // The new row's queued hits, in both queues.
    for (const bool writes : {false, true}) {
        unsigned hits = 0;
        if (bank.queued[writes]) {
            for (const Entry &e : writes ? writeQueue_ : readQueue_)
                hits += e.bank == b && e.req.coord.row == row;
        }
        bank.rowHits[writes] = hits;
    }
    bank.nextRd = std::max(bank.nextRd, now_ + t.tRCD);
    bank.nextWr = std::max(bank.nextWr, now_ + t.tRCD);
    bank.nextPre = std::max(bank.nextPre, now_ + t.tRAS);
    bank.nextAct = std::max(bank.nextAct, now_ + t.tRC());

    // tRRD spacing to every other bank, by bank-group affinity.
    const unsigned perGroup = cfg_.geom.banksPerGroup;
    for (unsigned o = 0; o < banks_.size(); ++o) {
        const unsigned bg = (o / perGroup) % cfg_.geom.bankGroups;
        const unsigned gap = (bg == bankGroup) ? t.tRRD_L : t.tRRD_S;
        banks_[o].nextAct = std::max(banks_[o].nextAct, now_ + gap);
    }

    actWindow_.push_back(now_);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
    ++stats_.actCommands;
}

void
MemoryController::issuePre(unsigned b)
{
    Bank &bank = banks_[b];
    bank.openRow = -1;
    bank.rowHits[0] = bank.rowHits[1] = 0;
    bank.nextAct = std::max(bank.nextAct, now_ + cfg_.timings.tRP);
    ++stats_.preCommands;
}

void
MemoryController::issueRead(Entry &e)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[e.bank];
    bank.nextPre = std::max(bank.nextPre, now_ + t.tRTP);

    const unsigned perGroup = cfg_.geom.banksPerGroup;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const unsigned bg = (b / perGroup) % cfg_.geom.bankGroups;
        const bool sameGroup = bg == e.req.coord.bankGroup;
        const unsigned ccd = sameGroup ? t.tCCD_L : t.tCCD_S;
        banks_[b].nextRd = std::max(banks_[b].nextRd, now_ + ccd);
        banks_[b].nextWr = std::max(banks_[b].nextWr, now_ + t.tRTW);
    }

    stats_.busBusyCycles += t.tBL;
    ++stats_.readsServed;

    pending_.push_back({now_ + t.tCL + t.tBL, e.req});
}

void
MemoryController::issueWrite(Entry &e)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[e.bank];
    bank.nextPre = std::max(bank.nextPre, now_ + t.tCWL + t.tBL + t.tWR);

    const unsigned perGroup = cfg_.geom.banksPerGroup;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const unsigned bg = (b / perGroup) % cfg_.geom.bankGroups;
        const bool sameGroup = bg == e.req.coord.bankGroup;
        const unsigned ccd = sameGroup ? t.tCCD_L : t.tCCD_S;
        const unsigned wtr = sameGroup ? t.tWTR_L : t.tWTR_S;
        banks_[b].nextWr = std::max(banks_[b].nextWr, now_ + ccd);
        banks_[b].nextRd =
            std::max(banks_[b].nextRd, now_ + t.tCWL + t.tBL + wtr);
    }

    stats_.busBusyCycles += t.tBL;
    ++stats_.writesServed;

    // Writes complete (from the requester's view) once issued.
    if (e.req.sink)
        pending_.push_back({now_ + t.tCWL + t.tBL, e.req});
}

Cycle
MemoryController::fawReadyAt() const
{
    return actWindow_.size() < 4
               ? Cycle{0}
               : actWindow_.front() + cfg_.timings.tFAW;
}

Cycle
MemoryController::earliestCommandAt() const
{
    // Per bank with entries in the served queue: a closed bank waits
    // for its ACT (and tFAW); an open bank with a pending hit takes
    // the column command and is pinned against PRE; any other open
    // bank only conflicts and waits for its PRE.
    const bool writes = writeMode_;
    const Cycle faw = fawReadyAt();
    Cycle ev = kNeverCycle;
    for (std::uint64_t m = busyBanks_[writes]; m; m &= m - 1) {
        const Bank &bank = banks_[std::countr_zero(m)];
        if (bank.openRow < 0)
            ev = std::min(ev, std::max(bank.nextAct, faw));
        else if (bank.rowHits[writes])
            ev = std::min(ev, writes ? bank.nextWr : bank.nextRd);
        else
            ev = std::min(ev, bank.nextPre);
    }
    return ev;
}

void
MemoryController::refreshEventHint() const
{
    Cycle ev = earliestCommandAt();
    if (!pending_.empty())
        ev = std::min(ev, pending_.front().ready);
    if (cfg_.timings.refreshEnabled)
        ev = std::min(ev, refreshPending_ ? Cycle{0} : nextRefresh_);
    if (wouldToggleWriteMode())
        ev = Cycle{0};
    eventHint_ = ev; // 0 encodes "could act immediately"
    eventHintValid_ = true;
}

void
MemoryController::registerStats(StatRegistry &reg) const
{
    auto g = reg.group(path());
    g.counter("cycles", stats_.cycles);
    g.counter("readsServed", stats_.readsServed);
    g.counter("writesServed", stats_.writesServed);
    g.counter("rowHits", stats_.rowHits);
    g.counter("rowMisses", stats_.rowMisses);
    g.counter("rowConflicts", stats_.rowConflicts);
    g.counter("actCommands", stats_.actCommands);
    g.counter("preCommands", stats_.preCommands);
    g.counter("refCommands", stats_.refCommands);
    g.counter("busBusyCycles", stats_.busBusyCycles);
    g.value("occupancyAccum", stats_.occupancyAccum);
    g.gauge("rowHitRate", [this] { return stats_.rowHitRate(); });
    g.gauge("busUtilization",
            [this] { return stats_.busUtilization(); });
}

} // namespace dx::mem
