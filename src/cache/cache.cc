#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::cache
{

Cache::Cache(const Config &cfg, CachePort *downstream)
    : Component(cfg.name), cfg_(cfg)
{
    dx_assert(downstream, "cache needs a downstream port");
    downstream_.bind(*downstream, *this);
    const std::uint64_t lines = cfg_.sizeBytes / kLineBytes;
    dx_assert(lines % cfg_.assoc == 0, "size/assoc mismatch");
    numSets_ = static_cast<unsigned>(lines / cfg_.assoc);
    dx_assert((numSets_ & (numSets_ - 1)) == 0,
              "set count must be a power of two");
    dx_assert(cfg_.mshrs > 0 && cfg_.queueSize > 0,
              "cache needs MSHRs and an input queue");
    tags_.assign(std::size_t{numSets_} * cfg_.assoc, kEmptySlot);
    meta_.assign(tags_.size(), WayMeta{});
    mshrs_.assign(cfg_.mshrs, Mshr{});
    freeMshrs_.assign((cfg_.mshrs + 63) / 64, 0);
    for (unsigned i = 0; i < cfg_.mshrs; ++i)
        freeMshrs_[i / 64] |= std::uint64_t{1} << (i % 64);
    const unsigned slots = std::bit_ceil(2 * cfg_.mshrs);
    index_.assign(slots, IndexSlot{kEmptySlot, 0});
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    queue_.resize(cfg_.queueSize);
}

void
Cache::setPrefetcher(std::unique_ptr<Prefetcher> pf)
{
    prefetcher_ = std::move(pf);
}

std::size_t
Cache::setBase(Addr line) const
{
    return ((line >> kLineShift) & (numSets_ - 1)) * std::size_t{cfg_.assoc};
}

std::size_t
Cache::findWay(Addr line) const
{
    const std::size_t base = setBase(line);
    const Addr *set = &tags_[base];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (set[w] == line)
            return base + w;
    }
    return kNoWay;
}

unsigned
Cache::indexHome(Addr line) const
{
    return static_cast<unsigned>(
        ((line >> kLineShift) * 0x9E3779B97F4A7C15ull) >> indexShift_);
}

int
Cache::mshrFor(Addr line) const
{
    // The table is at most half full, so the probe run ends at a hole.
    const unsigned mask = static_cast<unsigned>(index_.size()) - 1;
    for (unsigned i = indexHome(line);; i = (i + 1) & mask) {
        if (index_[i].line == line)
            return static_cast<int>(index_[i].mshr);
        if (index_[i].line == kEmptySlot)
            return -1;
    }
}

void
Cache::indexErase(Addr line)
{
    const unsigned mask = static_cast<unsigned>(index_.size()) - 1;
    unsigned hole = indexHome(line);
    while (index_[hole].line != line) {
        dx_assert(index_[hole].line != kEmptySlot, cfg_.name,
                  ": MSHR index lost a line");
        hole = (hole + 1) & mask;
    }
    // Backward-shift delete: an entry later in the run moves into the
    // hole unless its home lies cyclically in (hole, j], where the move
    // would put it before its home and out of reach of its probes.
    for (unsigned j = (hole + 1) & mask; index_[j].line != kEmptySlot;
         j = (j + 1) & mask) {
        if (((j - indexHome(index_[j].line)) & mask) >=
            ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole].line = kEmptySlot;
    --indexUsed_;
}

int
Cache::freeMshr() const
{
    for (unsigned w = 0; w < freeMshrs_.size(); ++w) {
        if (freeMshrs_[w])
            return static_cast<int>(w * 64 +
                                    std::countr_zero(freeMshrs_[w]));
    }
    return -1;
}

bool
Cache::mshrLive(unsigned idx) const
{
    return !((freeMshrs_[idx / 64] >> (idx % 64)) & 1);
}

Cache::Mshr &
Cache::allocMshr(unsigned idx, Addr line)
{
    // A leaked slot would fill the table and make every probe spin.
    dx_assert(indexUsed_ == mshrsInUse_, cfg_.name, ": MSHR index holds ",
              indexUsed_, " lines for ", mshrsInUse_, " live MSHRs");
    freeMshrs_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    ++mshrsInUse_;
    ++indexUsed_;
    const unsigned mask = static_cast<unsigned>(index_.size()) - 1;
    unsigned i = indexHome(line);
    while (index_[i].line != kEmptySlot)
        i = (i + 1) & mask;
    index_[i] = {line, idx};
    Mshr &m = mshrs_[idx];
    m.line = line;
    return m;
}

bool
Cache::canAccept(const CacheReq &) const
{
    return queueLen_ < cfg_.queueSize;
}

void
Cache::request(const CacheReq &req)
{
    touch(); // readyAt below reads our clock
    dx_assert(canAccept(req), cfg_.name, ": input queue overflow");
    unsigned tail = queueFront_ + queueLen_;
    if (tail >= cfg_.queueSize)
        tail -= cfg_.queueSize;
    queue_[tail] = {req, now_ + cfg_.latency};
    ++queueLen_;
}

bool
Cache::containsLine(Addr line) const
{
    line = lineAlign(line);
    return findWay(line) != kNoWay || mshrFor(line) >= 0;
}

bool
Cache::tagsHold(Addr line) const
{
    return findWay(lineAlign(line)) != kNoWay;
}

bool
Cache::invalidateLine(Addr line)
{
    touch();
    const std::size_t w = findWay(lineAlign(line));
    if (w == kNoWay)
        return false;
    tags_[w] = kEmptySlot;
    return meta_[w].dirty;
}

void
Cache::installLine(Addr line, bool dirty, bool prefetched)
{
    // Refill of a line that is already present (e.g. a full-line write
    // raced with a fill): just merge the dirty bit.
    if (const std::size_t w = findWay(line); w != kNoWay) {
        meta_[w].dirty = meta_[w].dirty || dirty;
        meta_[w].lastUse = ++useCounter_;
        return;
    }

    // Victim: the first invalid way, otherwise the first way with the
    // lowest lastUse.
    const std::size_t base = setBase(line);
    std::size_t victim = base;
    for (std::size_t w = base; w < base + cfg_.assoc; ++w) {
        if (tags_[w] == kEmptySlot) {
            victim = w;
            break;
        }
        if (meta_[w].lastUse < meta_[victim].lastUse)
            victim = w;
    }

    if (const Addr old = tags_[victim]; old != kEmptySlot) {
        ++stats_.evictions;
        bool victimDirty = meta_[victim].dirty;
        if (cfg_.inclusiveRoot) {
            for (Cache *child : children_) {
                if (child->invalidateLine(old))
                    victimDirty = true;
                ++stats_.backInvalidates;
            }
        }
        if (victimDirty) {
            writebacks_.push_back(old);
            ++stats_.writebacks;
        }
    }

    tags_[victim] = line;
    meta_[victim] = {++useCounter_, dirty, prefetched};
}

Cache::Stall
Cache::processRequest(const CacheReq &req)
{
    const Addr line = lineAlign(req.addr);
    const bool demand = req.origin == mem::Origin::kCpuDemand;
    const bool dxTraffic = req.origin == mem::Origin::kDx100;

    if (const std::size_t w = findWay(line); w != kNoWay) {
        WayMeta &way = meta_[w];
        if (demand) {
            ++stats_.demandAccesses;
            ++stats_.demandHits;
            if (way.prefetched) {
                ++stats_.prefetchesUseful;
                way.prefetched = false;
            }
            if (prefetcher_)
                prefetcher_->observe(req, false);
        } else if (dxTraffic) {
            ++stats_.dxHits;
        }
        if (req.write)
            way.dirty = true;
        way.lastUse = ++useCounter_;
        if (req.sink)
            req.sink->complete(req.tag);
        return Stall::kNone;
    }

    // Full-line writes (writebacks from above, bulk stores) allocate
    // without fetching.
    if (req.write && req.fullLine) {
        installLine(line, true, false);
        if (req.sink)
            req.sink->complete(req.tag);
        return Stall::kNone;
    }

    // Miss. Coalesce into an existing MSHR if one is outstanding.
    const int existing = mshrFor(line);
    if (existing >= 0) {
        Mshr &m = mshrs_[static_cast<unsigned>(existing)];
        if (m.targets.size() >= cfg_.targetsPerMshr)
            return Stall::kMshrFull;
        if (demand) {
            ++stats_.demandAccesses;
            ++stats_.demandMisses;
            ++stats_.mshrCoalesced;
            if (prefetcher_)
                prefetcher_->observe(req, true);
        } else if (dxTraffic) {
            ++stats_.dxMisses;
        }
        // A prefetch in the input queue was forwarded from above with a
        // sink (this cache's own go straight downstream), so it
        // coalesces like a demand.
        if (req.sink || req.write)
            m.targets.push_back({req.tag, req.sink, req.write});
        return Stall::kNone;
    }

    const int idx = freeMshr();
    if (idx < 0)
        return Stall::kMshrFull;
    CacheReq down;
    down.addr = req.addr;
    down.write = false; // fetch; dirtiness handled on fill
    down.origin = req.origin;
    // Forward the static-instruction id and loaded value so the next
    // level's prefetcher can train on the miss stream.
    down.pc = req.pc;
    down.value = req.value;
    down.tag = static_cast<std::uint64_t>(idx);
    down.sink = this;
    if (!downstream_->canAccept(down))
        return Stall::kDownstream;

    if (demand) {
        ++stats_.demandAccesses;
        ++stats_.demandMisses;
        if (prefetcher_)
            prefetcher_->observe(req, true);
    } else if (dxTraffic) {
        ++stats_.dxMisses;
    }

    Mshr &m = allocMshr(static_cast<unsigned>(idx), line);
    m.dirtyOnFill = req.write;
    m.prefetch = req.origin == mem::Origin::kPrefetch;
    if (req.sink || req.write)
        m.targets.push_back({req.tag, req.sink, req.write});
    downstream_->request(down);
    return Stall::kNone;
}

void
Cache::complete(const std::uint64_t &tag)
{
    touch(); // books the slept cycles under the old verdict first
    if (stall_ == Stall::kMshrFull)
        stall_ = Stall::kNone;
    dx_assert(tag < mshrs_.size(), cfg_.name, ": bogus fill tag");
    const unsigned idx = static_cast<unsigned>(tag);
    Mshr &m = mshrs_[idx];
    dx_assert(mshrLive(idx), cfg_.name, ": fill for idle MSHR");

    installLine(m.line, m.dirtyOnFill, m.prefetch);
    if (m.prefetch)
        ++stats_.prefetchesIssued;

    for (const auto &t : m.targets) {
        if (t.sink)
            t.sink->complete(t.tag);
    }
    // Reset in place: the targets vector keeps its capacity for the
    // next miss instead of being freed on every fill.
    indexErase(m.line);
    m.dirtyOnFill = false;
    m.prefetch = false;
    m.targets.clear();
    freeMshrs_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    dx_assert(mshrsInUse_ > 0, cfg_.name, ": MSHR count underflow");
    --mshrsInUse_;
}

void
Cache::departure()
{
    // A fill cannot end a downstream stall: that head had a free MSHR
    // and no MSHR of its own, and a departure cannot free an MSHR.
    touch();
    if (stall_ == Stall::kDownstream)
        stall_ = Stall::kNone;
}

void
Cache::drainWritebacks()
{
    while (!writebacks_.empty()) {
        CacheReq wb;
        wb.addr = writebacks_.front();
        wb.write = true;
        wb.fullLine = true;
        wb.origin = mem::Origin::kWriteback;
        wb.sink = nullptr;
        if (!downstream_->canAccept(wb))
            return;
        downstream_->request(wb);
        writebacks_.pop_front();
    }
}

// A prefetch issued after the head stalled never changes its verdict,
// so nothing here clears stall_. Prefetchers sit only on L1/L2, whose
// downstream admission does not depend on the address: a downstream
// stall refuses the prefetch too, and an MSHR-full head keeps its own
// full MSHR or finds none free.
void
Cache::issuePrefetches()
{
    if (!prefetcher_)
        return;
    for (unsigned n = 0; n < 2; ++n) {
        Addr line;
        if (!prefetcher_->nextPrefetch(line))
            return;
        if (containsLine(line))
            continue;
        const int idx = freeMshr();
        if (idx < 0)
            return;
        CacheReq down;
        down.addr = lineAlign(line);
        down.origin = mem::Origin::kPrefetch;
        down.tag = static_cast<std::uint64_t>(idx);
        down.sink = this;
        if (!downstream_->canAccept(down))
            return;

        allocMshr(static_cast<unsigned>(idx), down.addr).prefetch = true;
        downstream_->request(down);
    }
}

void
Cache::tick()
{
    ++now_;
    stall_ = Stall::kNone;
    drainWritebacks();

    unsigned n = 0;
    for (; n < cfg_.width && queueLen_ > 0; ++n) {
        const Pending &p = queueHead();
        if (p.readyAt > now_)
            break;
        stall_ = processRequest(p.req);
        if (stall_ != Stall::kNone) {
            bookStall(1);
            break; // structural stall: retry next cycle
        }
        if (++queueFront_ == cfg_.queueSize)
            queueFront_ = 0;
        --queueLen_;
    }
    if (n > 0)
        departed(); // a client upstream may be waiting for space

    issuePrefetches();
}

std::string
Cache::debugDump() const
{
    std::ostringstream os;
    os << cfg_.name << ": queue=" << queueLen_
       << " writebacks=" << writebacks_.size() << " mshrs:";
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const Mshr &m = mshrs_[i];
        if (!mshrLive(i))
            continue;
        os << " [" << i << " line=0x" << std::hex << m.line << std::dec
           << " targets=" << m.targets.size()
           << (m.prefetch ? " pf" : "")
           << (m.dirtyOnFill ? " dirty" : "") << "]";
    }
    for (unsigned k = 0; k < queueLen_; ++k) {
        const Pending &p = queue_[(queueFront_ + k) % cfg_.queueSize];
        os << " {q addr=0x" << std::hex << p.req.addr << std::dec
           << " w=" << p.req.write << " org="
           << static_cast<int>(p.req.origin) << "}";
    }
    return os.str();
}

bool
Cache::busy() const
{
    return queueLen_ > 0 || !writebacks_.empty() || mshrsInUse_ > 0;
}

bool
Cache::drained() const
{
    return !busy() && (!prefetcher_ || !prefetcher_->pending());
}

void
Cache::auditDrained() const
{
    dx_assert(mshrsInUse_ == 0, cfg_.name, ": MSHRs in use at drain");
    unsigned free = 0;
    for (const std::uint64_t w : freeMshrs_)
        free += static_cast<unsigned>(std::popcount(w));
    dx_assert(free == cfg_.mshrs, cfg_.name,
              ": MSHR free bitmap not full at drain");
    for (const IndexSlot &s : index_) {
        dx_assert(s.line == kEmptySlot, cfg_.name,
                  ": line index still maps line ", s.line,
                  " at drain");
    }
}

Cycle
Cache::nextEventAt() const
{
    if (!writebacks_.empty() ||
        (prefetcher_ && prefetcher_->pending())) {
        return now_ + 1;
    }
    if (queueLen_ == 0)
        return kNeverCycle;
    // The input queue is served in order, so only the head can become
    // due; MSHR fills arrive via complete (external stimulus).
    if (queueHead().readyAt > now_ + 1)
        return queueHead().readyAt;
    // Due head: quiet while the stall its last tick recorded stands,
    // since each retry would only bump that stall counter (skipCycles
    // books it). Entries behind the head are blocked in order.
    return stall_ == Stall::kNone ? now_ + 1 : kNeverCycle;
}

void
Cache::bookStall(Cycle n)
{
    switch (stall_) {
      case Stall::kMshrFull:
        stats_.stallMshrFull += n;
        break;
      case Stall::kDownstream:
        stats_.stallDownstream += n;
        break;
      case Stall::kNone:
        break;
    }
}

void
Cache::skipCycles(Cycle n)
{
    now_ += n;
    bookStall(n);
}

void
Cache::registerStats(StatRegistry &reg) const
{
    StatRegistry::Group g = reg.group(path());
    g.counter("demandHits", stats_.demandHits);
    g.counter("demandMisses", stats_.demandMisses);
    g.counter("demandAccesses", stats_.demandAccesses);
    g.counter("dxHits", stats_.dxHits);
    g.counter("dxMisses", stats_.dxMisses);
    g.counter("mshrCoalesced", stats_.mshrCoalesced);
    g.counter("writebacks", stats_.writebacks);
    g.counter("evictions", stats_.evictions);
    g.counter("backInvalidates", stats_.backInvalidates);
    g.counter("prefetchesIssued", stats_.prefetchesIssued);
    g.counter("prefetchesUseful", stats_.prefetchesUseful);
    g.counter("stallMshrFull", stats_.stallMshrFull);
    g.counter("stallDownstream", stats_.stallDownstream);
}

} // namespace dx::cache
