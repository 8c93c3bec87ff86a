#include "dx100/dx100.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "dx100/functional.hh"
#include "sim/stat_registry.hh"

namespace dx::dx100
{

Dx100::Dx100(const Dx100Config &cfg, mem::DramSystem &dram,
             cache::CachePort *llcPort, CoherencyAgent agent,
             unsigned maxCores)
    : Component("dx100"), cfg_(cfg), dram_(dram),
      agent_(agent),
      tlb_(cfg.tlbEntries, cfg.tlbMissPenalty),
      doorbells_(maxCores), sideband_(maxCores),
      regs_(cfg.numRegs, 0), tileReady_(cfg.numTiles, true),
      tileProgress_(cfg.numTiles),
      tables_({dram.geometry().totalBanks(), cfg.rowsPerSlice,
               cfg.colsPerRow})
{
    if (llcPort)
        llcPort_.bind(*llcPort, *this);
    retired_.push_back(true); // id 0 unused
    streamSink_.owner = this;
    llcSink_.owner = this;
    llcSink_.viaCache = true;
    dramSink_.owner = this;
    spdPort_.owner = this;
    const unsigned linesPerTile = cfg_.tileElems * Dx100Config::kSpdLane /
                                  kLineBytes;
    spdCached_.assign(cfg_.numTiles,
                      std::vector<bool>(linesPerTile, false));
    indirect_.rrPtr.assign(dram_.channels(), 0);
}

// ---------------------------------------------------------------------
// Sideband + MMIO
// ---------------------------------------------------------------------

std::uint64_t
Dx100::registerPayload(int coreId, ExecPayload payload)
{
    dx_assert(static_cast<unsigned>(coreId) < sideband_.size(),
              "core id out of range");
    payload.id = nextId_++;
    retired_.push_back(false);
    const std::uint64_t id = payload.id;
    sideband_[static_cast<unsigned>(coreId)].push_back(
        std::move(payload));
    return id;
}

void
Dx100::registerRegion(Addr base, Addr size)
{
    touch();
    tlb_.installRange(base, size);
}

void
Dx100::mmioWrite(Addr addr, std::uint64_t data, int coreId)
{
    touch();
    if (addr >= cfg_.rfBase() &&
        addr < cfg_.rfBase() + cfg_.numRegs * 8) {
        regs_[(addr - cfg_.rfBase()) / 8] = data;
        return;
    }

    const Addr off = addr - cfg_.mmioBase;
    const unsigned core = static_cast<unsigned>(
        off / Dx100Config::kDoorbellStride);
    const unsigned word = static_cast<unsigned>(
        (off % Dx100Config::kDoorbellStride) / 8);
    dx_assert(core < doorbells_.size(), "doorbell out of range");
    dx_assert(static_cast<int>(core) == coreId,
              "core wrote another core's doorbell");

    Doorbell &db = doorbells_[core];
    dx_assert(word == db.have, "doorbell words arrived out of order");
    db.words[word] = data;
    if (++db.have < 3)
        return;
    db.have = 0;

    dx_assert(!sideband_[core].empty(),
              "doorbell completed with no registered payload");
    ExecPayload payload = std::move(sideband_[core].front());
    sideband_[core].pop_front();

    // The architectural bits must round-trip: the doorbell words are
    // the actual encoding of the registered instruction.
    const Instruction decoded = decode(db.words);
    dx_assert(decoded == payload.instr,
              "doorbell encoding does not match registered payload");

    inputQueue_.push_back(std::move(payload));
}

bool
Dx100::mmioReady(std::uint64_t token, int coreId)
{
    (void)coreId;
    dx_assert(token < retired_.size(), "bogus wait token");
    return retired_[token];
}

bool
Dx100::tileReady(unsigned tile) const
{
    dx_assert(tile < tileReady_.size(), "tile out of range");
    return tileReady_[tile];
}

// ---------------------------------------------------------------------
// Scoreboard / dispatch
// ---------------------------------------------------------------------

Dx100::UnitKind
Dx100::unitFor(Opcode op)
{
    switch (op) {
      case Opcode::kSld:
      case Opcode::kSst:
        return UnitKind::kStream;
      case Opcode::kIld:
      case Opcode::kIst:
      case Opcode::kIrmw:
        return UnitKind::kIndirect;
      case Opcode::kAluv:
      case Opcode::kAlus:
        return UnitKind::kAlu;
      case Opcode::kRng:
        return UnitKind::kRange;
    }
    dx_panic("bad opcode");
}

bool
Dx100::writesRegion(Opcode op)
{
    return op == Opcode::kIst || op == Opcode::kIrmw || op == Opcode::kSst;
}

bool
Dx100::anyBusy() const
{
    return std::any_of(active_.begin(), active_.end(),
                       [](const Active &a) { return a.valid; });
}

std::uint64_t
Dx100::tileMaskDest(const Instruction &i) const
{
    std::uint64_t m = 0;
    if (i.td != kNoOperand)
        m |= std::uint64_t{1} << i.td;
    if (i.td2 != kNoOperand)
        m |= std::uint64_t{1} << i.td2;
    return m;
}

std::uint64_t
Dx100::tileMaskSrc(const Instruction &i) const
{
    std::uint64_t m = 0;
    if (i.ts1 != kNoOperand)
        m |= std::uint64_t{1} << i.ts1;
    if (i.ts2 != kNoOperand)
        m |= std::uint64_t{1} << i.ts2;
    if (i.tc != kNoOperand)
        m |= std::uint64_t{1} << i.tc;
    return m;
}

std::uint32_t
Dx100::gateLimit(const Active &a)
{
    std::uint32_t limit = ~std::uint32_t{0};
    for (const auto &g : a.srcGates) {
        if (g)
            limit = std::min(limit, g->prefix);
    }
    return limit;
}

void
Dx100::tryDispatch()
{
    if (inputQueue_.empty())
        return;

    // Collect the tiles everything already executing touches.
    std::uint64_t activeAny = 0;
    for (const Active &a : active_) {
        if (a.valid)
            activeAny |= a.destMask | a.srcMask;
    }

    // Out-of-order dispatch within a bounded window, preserving
    // dependences against both executing and older queued instructions.
    std::uint64_t olderDest = 0;
    std::uint64_t olderAny = 0;
    const std::size_t window =
        std::min<std::size_t>(inputQueue_.size(), cfg_.dispatchWindow);
    for (std::size_t i = 0; i < window; ++i) {
        const ExecPayload &p = inputQueue_[i];
        const std::uint64_t dest = tileMaskDest(p.instr);
        const std::uint64_t src = tileMaskSrc(p.instr);
        const UnitKind unit = unitFor(p.instr.op);
        const bool unitFree = !active_[unit].valid;

        // WAW/WAR against anything in flight or older in the queue
        // still blocks; RAW against an *executing* producer is allowed
        // and gated element-wise on its finish-bit progress (§3.5).
        const bool hazard =
            (dest & (activeAny | olderAny)) != 0 ||
            (src & olderDest) != 0;

        // Cross-instance region coherence: stores/RMWs need write
        // ownership of their target region (§6.6).
        const bool needsRegion = regionDir_ && writesRegion(p.instr.op);
        if (unitFree && !hazard && needsRegion &&
            !regionDir_->tryAcquireWrite(instanceId_, p.instr.base,
                                         now_)) {
            olderDest |= dest;
            olderAny |= dest | src;
            continue;
        }

        if (unitFree && !hazard) {
            ExecPayload payload = std::move(inputQueue_[i]);
            inputQueue_.erase(inputQueue_.begin() +
                              static_cast<std::ptrdiff_t>(i));
            dispatchTo(unit, std::move(payload));
            return;
        }
        olderDest |= dest;
        olderAny |= dest | src;
    }
    ++stats_.dispatchStalls;
}

void
Dx100::dispatchTo(UnitKind unit, ExecPayload &&payload)
{
    Active a;
    a.valid = true;
    a.destMask = tileMaskDest(payload.instr);
    a.srcMask = tileMaskSrc(payload.instr);
    a.payload = std::move(payload);

    if (a.destMask) {
        a.progress = std::make_shared<Progress>();
        a.progress->total = a.payload.outCount;
    }

    // Per touched tile: capture the finish-bit progress of a
    // still-executing producer of a source before publishing our own
    // progress for a dest; then drop the ready bit and invalidate any
    // cached SPD lines of the tile (§3.6).
    for (unsigned t = 0; t < cfg_.numTiles; ++t) {
        const std::uint64_t bit = std::uint64_t{1} << t;
        if (!((a.destMask | a.srcMask) & bit))
            continue;
        const ProgressPtr &last = tileProgress_[t];
        if ((a.srcMask & bit) && last && last->prefix < last->total)
            a.srcGates.push_back(last);
        if (a.destMask & bit)
            tileProgress_[t] = a.progress;
        tileReady_[t] = false;
        invalidateTileLines(t);
    }

    active_[unit] = std::move(a);
    progressed();
    switch (unit) {
      case UnitKind::kStream:
        streamStart(stream_);
        break;
      case UnitKind::kIndirect:
        indirectStart(indirect_);
        break;
      case UnitKind::kAlu:
        aluProcessed_ = 0;
        break;
      case UnitKind::kRange:
        rangeProcessed_ = 0;
        break;
    }
}

void
Dx100::retire(UnitKind unit)
{
    Active &a = active_[unit];
    if (a.progress)
        a.progress->prefix = a.progress->total;
    a.srcGates.clear();
    for (unsigned t = 0; t < cfg_.numTiles; ++t) {
        if ((a.destMask | a.srcMask) & (std::uint64_t{1} << t))
            tileReady_[t] = true;
    }
    if (regionDir_ && writesRegion(a.payload.instr.op))
        regionDir_->releaseWrite(instanceId_, a.payload.instr.base);
    retired_[a.payload.id] = true;
    ++stats_.instructionsRetired;
    ++stats_.byOpcode[static_cast<unsigned>(a.payload.instr.op)];
    a.valid = false;
    progressed();
}

void
Dx100::invalidateTileLines(unsigned tile)
{
    auto &lines = spdCached_[tile];
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!lines[i])
            continue;
        lines[i] = false;
        const Addr line = cfg_.spdBase +
                          (static_cast<Addr>(tile) * lines.size() + i) *
                              kLineBytes;
        stats_.invalidations += agent_.invalidateLine(line);
    }
}

// ---------------------------------------------------------------------
// Stream unit
// ---------------------------------------------------------------------

void
Dx100::StreamSink::complete(const std::uint64_t &tag)
{
    (void)tag;
    owner->touch();
    StreamUnit &u = owner->stream_;
    dx_assert(u.outstanding > 0, "stray stream response");
    --u.outstanding;
    ++u.linesDone;
    owner->progressed();
    const ProgressPtr &progress = owner->active_[kStream].progress;
    if (progress && !u.lines.empty()) {
        // Responses return roughly in order: publish a linear prefix.
        progress->prefix = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(progress->total) * u.linesDone /
            u.lines.size());
    }
}

void
Dx100::streamStart(StreamUnit &u)
{
    const ExecPayload &p = active_[kStream].payload;
    const StreamScalars s = unpackStream(p.instr.imm);
    const unsigned bytes = p.instr.elemBytes();
    dx_assert(u.outstanding == 0, "stream lines outlived their instruction");
    u.isStore = p.instr.op == Opcode::kSst;
    u.lines.clear();
    u.issuePos = 0;
    u.linesDone = 0;

    Addr prevLine = ~Addr{0};
    for (std::uint32_t i = 0; i < s.count; ++i) {
        if (!p.cond.empty() && !p.cond[i])
            continue;
        const Addr addr =
            p.instr.base +
            (s.start + static_cast<std::int64_t>(i) * s.stride) * bytes;
        const Addr line = lineAlign(addr);
        if (line != prevLine) {
            u.lines.push_back(line);
            prevLine = line;
        }
    }
}

void
Dx100::streamTick(StreamUnit &u)
{
    const Active &a = active_[kStream];
    if (!a.valid)
        return;

    // Gate on still-executing producers of the data/condition tiles
    // (finish bits): a store may only stream out elements that exist.
    std::size_t allowedLines = u.lines.size();
    const std::uint32_t limit = gateLimit(a);
    if (limit != ~std::uint32_t{0} && a.payload.count > 0) {
        allowedLines = std::min<std::size_t>(
            allowedLines, static_cast<std::size_t>(
                              static_cast<std::uint64_t>(
                                  u.lines.size()) *
                              limit / a.payload.count));
    }

    // Issue up to two line requests per cycle through the LLC.
    for (unsigned n = 0; n < 2; ++n) {
        if (u.issuePos >= allowedLines)
            break;
        if (u.outstanding >= cfg_.requestTableSize)
            break;
        cache::CacheReq req;
        req.addr = u.lines[u.issuePos];
        req.write = u.isStore;
        req.fullLine = u.isStore;
        req.origin = mem::Origin::kDx100;
        req.tag = u.issuePos;
        req.sink = &streamSink_;
        if (!llcPort_ || !llcPort_->canAccept(req))
            break;
        llcPort_->request(req);
        if (u.isStore)
            ++stats_.llcWrites;
        else
            ++stats_.llcReads;
        ++u.outstanding;
        ++u.issuePos;
        progressed();
    }

    if (u.issuePos >= u.lines.size() && u.outstanding == 0)
        retire(UnitKind::kStream);
}

// ---------------------------------------------------------------------
// Indirect unit
// ---------------------------------------------------------------------

void
Dx100::IndirectSink::complete(const std::uint64_t &tag)
{
    owner->touch();
    owner->indirect_.responses.push_back(
        {static_cast<IndirectTables::ColHandle>(tag), viaCache});
    dx_assert(owner->indirect_.outstandingReads > 0,
              "stray ", viaCache ? "LLC" : "DRAM", " indirect response");
    --owner->indirect_.outstandingReads;
}

void
Dx100::indirectStart(IndirectUnit &u)
{
    const ExecPayload &p = active_[kIndirect].payload;
    dx_assert(u.responses.empty() && u.pendingWrites.empty() &&
                  u.outstandingReads == 0,
              "indirect traffic outlived its instruction");
    u.n = p.count;
    u.fillPos = 0;
    u.fillBlocked = false;
    u.tlbStall = 0;
    u.wordsDone = 0;
    u.skippedAtFill = 0;
    u.lineOfHandle.clear();
    u.needsWriteback = p.instr.op != Opcode::kIld;
    tables_.reset(u.n);
}

bool
Dx100::indirectDone(const IndirectUnit &u) const
{
    return u.fillPos >= u.n && tables_.drained() &&
           u.responses.empty() && u.pendingWrites.empty() &&
           u.outstandingReads == 0;
}

void
Dx100::indirectFill(IndirectUnit &u)
{
    if (u.tlbStall > 0) {
        --u.tlbStall;
        progressed();
        return;
    }
    u.fillBlocked = false;

    const Active &a = active_[kIndirect];
    const ExecPayload &p = a.payload;
    const unsigned bytes = p.instr.elemBytes();
    const mem::AddressMap &map = dram_.addressMap();
    const mem::DramGeometry &geom = dram_.geometry();

    // Finish-bit gating (§3.5): only consume source elements the
    // producing instruction has already written. While gated, the
    // request stage keeps draining so the fill latency hides behind
    // the index load instead of serializing after it.
    const std::uint32_t fillLimit =
        std::min<std::uint32_t>(u.n, gateLimit(a));

    // Condition-false iterations are skipped by a cheap pre-scan of
    // the condition tile (§3.2: the controller reads SPD[TC][i] and
    // only triggers the address generator when it holds), so they
    // drain four times faster than real inserts.
    unsigned skipBudget = 4 * cfg_.fillRate;
    for (unsigned k = 0; k < cfg_.fillRate && u.fillPos < fillLimit;
         ++k) {
        while (u.fillPos < fillLimit && !p.cond.empty() &&
               !p.cond[u.fillPos] && skipBudget > 0) {
            ++u.fillPos;
            ++u.skippedAtFill;
            --skipBudget;
            progressed();
        }
        if (u.fillPos >= fillLimit)
            break;
        const std::uint32_t i = u.fillPos;
        if (!p.cond.empty() && !p.cond[i])
            break; // skip budget exhausted for this cycle

        const Addr addr = p.instr.base + p.src1[i] * bytes;
        const unsigned penalty = tlb_.lookup(addr);
        if (penalty > 0) {
            u.tlbStall = penalty;
            return;
        }

        const Addr line = lineAlign(addr);
        const mem::DramCoord coord = map.decompose(line);
        const unsigned slice = coord.flatBank(geom);
        const auto wordOff =
            static_cast<std::uint16_t>(lineOffset(addr) / 4);

        const auto res =
            tables_.insert(slice, coord.row, coord.column, wordOff, i);
        if (res == IndirectTables::InsertResult::kSliceFull) {
            u.fillBlocked = true;
            ++stats_.fillStallCycles;
            return;
        }
        if (res == IndirectTables::InsertResult::kNewColumn) {
            const auto h = static_cast<IndirectTables::ColHandle>(
                tables_.columnsAllocated() - 1);
            if (u.lineOfHandle.size() <= h)
                u.lineOfHandle.resize(h + 1);
            u.lineOfHandle[h] = line;
            // Snoop the coherence directory for the H bit.
            tables_.setCacheHit(h, llcPort_ && agent_.isCached(line));
            ++stats_.indirectColumns;
        }
        ++stats_.indirectWords;
        ++u.fillPos;
        progressed();
    }
}

void
Dx100::indirectRequests(IndirectUnit &u)
{
    // Draining starts once the tile is fully inserted or fill is stuck
    // on a full slice (§3.2 Operation Stage 2). While fill merely paces
    // a still-running producer, requests are *not* issued:
    // draining early would split the Word-Table coalescing chains, and
    // when the chain is DRAM-bound the bandwidth floor dominates
    // anyway — the §3.5 overlap value is in the hidden fill stage.
    const bool draining = u.fillPos >= u.n || u.fillBlocked;
    if (!draining)
        return;

    const mem::DramGeometry &geom = dram_.geometry();
    const unsigned slicesPerChannel = geom.banksPerChannel();

    for (unsigned ch = 0; ch < dram_.channels(); ++ch) {
        // One request per channel per core cycle, walking this
        // channel's slices round-robin so consecutive requests
        // interleave bank groups.
        unsigned &rr = u.rrPtr[ch];
        for (unsigned probe = 0; probe < slicesPerChannel; ++probe) {
            const unsigned sliceInCh = (rr + probe) % slicesPerChannel;
            const unsigned slice = ch * slicesPerChannel + sliceInCh;
            auto req = tables_.nextRequest(slice);
            if (!req)
                continue;

            const Addr line = u.lineOfHandle[req->handle];
            if (req->cacheHit) {
                cache::CacheReq creq;
                creq.addr = line;
                creq.origin = mem::Origin::kDx100;
                creq.tag = req->handle;
                creq.sink = &llcSink_;
                if (!llcPort_ || !llcPort_->canAccept(creq)) {
                    tables_.unsend(*req);
                    break;
                }
                llcPort_->request(creq);
                ++stats_.llcReads;
            } else {
                if (!dram_.channel(ch).canAccept(false)) {
                    tables_.unsend(*req);
                    break;
                }
                dram_.access(line, false, req->handle, &dramSink_);
                ++stats_.dramReads;
            }
            ++u.outstandingReads;
            progressed();
            rr = (sliceInCh + 1) % slicesPerChannel;
            break;
        }
    }
}

void
Dx100::indirectResponses(IndirectUnit &u)
{
    for (unsigned n = 0; n < cfg_.respPerCycle && !u.responses.empty();
         ++n) {
        const auto [handle, viaCache] = u.responses.front();
        u.responses.pop_front();
        progressed();
        const unsigned words = tables_.completeColumn(
            handle, [&](std::uint32_t, std::uint16_t) {});
        u.wordsDone += words;
        const ProgressPtr &progress = active_[kIndirect].progress;
        if (progress && u.n > 0) {
            // Columns complete out of order; the in-order finish-bit
            // prefix grows roughly quadratically in the done fraction.
            const std::uint64_t done = u.wordsDone + u.skippedAtFill;
            progress->prefix = static_cast<std::uint32_t>(done * done /
                                                          u.n);
        }
        if (u.needsWriteback) {
            u.pendingWrites.push_back(
                {u.lineOfHandle[handle], viaCache});
        }
    }
}

void
Dx100::indirectWrites(IndirectUnit &u)
{
    while (!u.pendingWrites.empty()) {
        const auto [line, viaCache] = u.pendingWrites.front();
        if (viaCache) {
            cache::CacheReq creq;
            creq.addr = line;
            creq.write = true;
            creq.origin = mem::Origin::kDx100;
            if (!llcPort_ || !llcPort_->canAccept(creq))
                return;
            llcPort_->request(creq);
            ++stats_.llcWrites;
        } else {
            if (!dram_.canAccept(line, true))
                return;
            dram_.access(line, true, 0, nullptr);
            ++stats_.dramWrites;
        }
        u.pendingWrites.pop_front();
        progressed();
    }
}

void
Dx100::indirectTick(IndirectUnit &u)
{
    if (!active_[kIndirect].valid)
        return;
    indirectResponses(u);
    indirectWrites(u);
    // Requests go out before fill runs: a slice-full stall fill finds
    // in this tick only starts the drain next tick.
    indirectRequests(u);
    if (u.fillPos < u.n)
        indirectFill(u);
    if (indirectDone(u)) {
        tables_.auditDrained();
        retire(UnitKind::kIndirect);
    }
}

void
Dx100::timedTick(UnitKind kind, std::uint64_t &processed)
{
    const Active &a = active_[kind];
    if (!a.valid)
        return;
    const std::uint64_t rate =
        kind == UnitKind::kAlu ? cfg_.aluLanes : cfg_.rangeRate;
    const std::uint32_t count = a.payload.count;
    const std::uint32_t limit =
        std::min<std::uint32_t>(count, gateLimit(a));
    const std::uint64_t next =
        std::min<std::uint64_t>(processed + rate, limit);
    if (next != processed)
        progressed();
    processed = next;

    if (a.progress && count > 0) {
        // In-order lanes: published output prefix tracks consumed
        // input linearly (RNG expands count -> outCount).
        a.progress->prefix = static_cast<std::uint32_t>(
            processed * a.progress->total / count);
    }
    if (processed >= count)
        retire(kind);
}

// ---------------------------------------------------------------------
// Scratchpad port
// ---------------------------------------------------------------------

bool
Dx100::SpdPort::canAccept(const cache::CacheReq &) const
{
    return queue.size() < owner->cfg_.spdPortQueue;
}

void
Dx100::SpdPort::request(const cache::CacheReq &req)
{
    owner->touch(); // the entry's due cycle reads our clock
    queue.push_back({owner->now_ + owner->cfg_.spdReadLatency, req});
    if (!req.write)
        owner->markSpdCached(req.addr);
}

unsigned
Dx100::tileOfSpdAddr(Addr addr) const
{
    const Addr off = addr - cfg_.spdBase;
    return static_cast<unsigned>(
        off / (static_cast<Addr>(cfg_.tileElems) *
               Dx100Config::kSpdLane));
}

void
Dx100::markSpdCached(Addr addr)
{
    const unsigned tile = tileOfSpdAddr(addr);
    if (tile >= cfg_.numTiles)
        return;
    const Addr tileBase = cfg_.spdBase +
                          static_cast<Addr>(tile) * cfg_.tileElems *
                              Dx100Config::kSpdLane;
    const std::size_t lineIdx = (lineAlign(addr) - tileBase) /
                                kLineBytes;
    if (lineIdx < spdCached_[tile].size())
        spdCached_[tile][lineIdx] = true;
}

void
Dx100::spdTick()
{
    // Serve up to two SPD lines per cycle (the 4-ported scratchpad is
    // not the bottleneck; the NoC link is).
    for (unsigned n = 0; n < 2; ++n) {
        if (spdPort_.queue.empty() ||
            spdPort_.queue.front().first > now_) {
            return;
        }
        const cache::CacheReq req = spdPort_.queue.front().second;
        spdPort_.queue.pop_front();
        spdPort_.departed();
        ++stats_.spdLinesServed;
        if (req.sink)
            req.sink->complete(req.tag);
    }
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

void
Dx100::tick()
{
    ++now_;
    spdTick();
    streamTick(stream_);
    indirectTick(indirect_);

    timedTick(UnitKind::kAlu, aluProcessed_);
    timedTick(UnitKind::kRange, rangeProcessed_);

    tryDispatch();

    if (now_ - lastProgress_ >= kWedgeCycles && anyBusy())
        dx_fatal(path(), ": wedged, no unit progressed for ", kWedgeCycles,
                 " cycles (now ", now_, "): ", debugDump());
}

std::string
Dx100::debugDump() const
{
    auto state = [this](UnitKind k) {
        return active_[k].valid ? "busy" : "idle";
    };
    std::ostringstream os;
    os << "dx100: inputQ=" << inputQueue_.size()
       << " stream=" << state(kStream)
       << "(issue=" << stream_.issuePos << "/" << stream_.lines.size()
       << " out=" << stream_.outstanding << ")"
       << " indirect=" << state(kIndirect)
       << "(fill=" << indirect_.fillPos << "/" << indirect_.n
       << (indirect_.fillBlocked ? " blocked" : "")
       << " resp=" << indirect_.responses.size()
       << " wr=" << indirect_.pendingWrites.size()
       << " outRd=" << indirect_.outstandingReads
       << " drained=" << tables_.drained() << ")"
       << " alu=" << state(kAlu) << " rng=" << state(kRange)
       << " spdQ=" << spdPort_.queue.size();
    return os.str();
}

Cycle
Dx100::nextEventAt() const
{
    if (anyBusy() || !inputQueue_.empty())
        return now_ + 1;
    // A scratchpad head already due reads as "tick me" too.
    return spdPort_.queue.empty() ? kNeverCycle
                                  : spdPort_.queue.front().first;
}

bool
Dx100::drained() const
{
    if (!inputQueue_.empty() || anyBusy() || !spdPort_.queue.empty())
        return false;
    for (const auto &sb : sideband_) {
        if (!sb.empty())
            return false;
    }
    return true;
}

void
Dx100::auditDrained() const
{
    for (unsigned t = 0; t < cfg_.numTiles; ++t)
        dx_assert(tileReady_[t], path(), ": tile ", t, " not ready at drain");
    for (std::size_t id = 0; id < retired_.size(); ++id) {
        dx_assert(retired_[id], path(), ": instruction ", id,
                  " never retired");
    }
    tables_.auditDrained();
}

void
Dx100::registerStats(StatRegistry &reg) const
{
    StatRegistry::Group g = reg.group(path());
    g.counter("instructionsRetired", stats_.instructionsRetired);
    g.counter("dramReads", stats_.dramReads);
    g.counter("dramWrites", stats_.dramWrites);
    g.counter("llcReads", stats_.llcReads);
    g.counter("llcWrites", stats_.llcWrites);
    g.counter("spdLinesServed", stats_.spdLinesServed);
    g.counter("invalidations", stats_.invalidations);
    g.counter("fillStallCycles", stats_.fillStallCycles);
    g.counter("dispatchStalls", stats_.dispatchStalls);

    StatRegistry::Group tlb = g.sub("tlb");
    tlb.value("hits", std::function<std::uint64_t()>(
                          [this] { return tlb_.hits(); }));
    tlb.value("misses", std::function<std::uint64_t()>(
                            [this] { return tlb_.misses(); }));

    // The Row/Word Table reordering metrics (§3.4): words gathered,
    // unique DRAM columns touched, and their ratio — the paper's
    // coalescing factor.
    StatRegistry::Group rt = g.sub("rowtable");
    rt.counter("words", stats_.indirectWords);
    rt.counter("columns", stats_.indirectColumns);
    // Insertions that chained onto an already-open column instead of
    // allocating a new one — the table's coalescing hits.
    rt.value("hits", std::function<std::uint64_t()>([this] {
                 return stats_.indirectWords.value() -
                        stats_.indirectColumns.value();
             }));
    rt.gauge("coalescingFactor",
             [this] { return stats_.coalescingFactor(); });

    StatRegistry::Group op = g.sub("opcode");
    static const char *const kOpNames[8] = {
        "ild", "ist", "irmw", "sld", "sst", "aluv", "alus", "rng",
    };
    for (std::size_t i = 0; i < stats_.byOpcode.size(); ++i)
        op.counter(kOpNames[i], stats_.byOpcode[i]);
}

} // namespace dx::dx100
