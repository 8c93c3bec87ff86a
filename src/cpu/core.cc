#include "cpu/core.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::cpu
{

namespace
{

/** Tag bit distinguishing post-commit store drains from ROB loads. */
constexpr std::uint64_t kStoreTag = std::uint64_t{1} << 63;

/** One completion-wheel slot per representable latency: none wraps. */
constexpr std::size_t kWheelSlots =
    std::size_t{std::numeric_limits<decltype(MicroOp::latency)>::max()} + 1;

bool
isHeadBlockedKind(OpKind k)
{
    return k == OpKind::kRmw || k == OpKind::kDxWait ||
           k == OpKind::kFence;
}

bool
isFencingKind(OpKind k)
{
    return k == OpKind::kRmw || k == OpKind::kFence;
}

bool
needsSq(OpKind k)
{
    return k == OpKind::kStore || k == OpKind::kRmw ||
           k == OpKind::kMmioStore;
}

// What the core sends the L1. Admission never reads the sink, so the
// sender sets it.

/** A load or RMW, tagged with its sequence number. */
cache::CacheReq
loadRequest(const MicroOp &op, SeqNum seq)
{
    cache::CacheReq req;
    req.addr = op.addr;
    req.write = op.kind == OpKind::kRmw;
    req.pc = op.pc;
    req.value = op.value;
    req.tag = seq;
    return req;
}

/** A store leaving the store buffer. */
cache::CacheReq
storeRequest(const MicroOp &op)
{
    cache::CacheReq req;
    req.addr = op.addr;
    req.write = true;
    req.pc = op.pc;
    req.tag = kStoreTag;
    return req;
}

} // namespace

Core::Core(const Config &cfg, int id, cache::CachePort *l1)
    : Component("core" + std::to_string(id)), cfg_(cfg), id_(id),
      rob_(cfg.robSize), wheel_(kWheelSlots)
{
    dx_assert(l1, "core needs an L1 port");
    l1_.bind(*l1, *this);
}

Core::RobEntry &
Core::entry(SeqNum seq)
{
    return rob_[seq % cfg_.robSize];
}

const Core::RobEntry &
Core::entry(SeqNum seq) const
{
    return rob_[seq % cfg_.robSize];
}

bool
Core::inRob(SeqNum seq) const
{
    return seq >= robHead_ && seq < robTail_;
}

bool
Core::depSatisfied(SeqNum dep) const
{
    if (dep == kNoSeq || dep < robHead_)
        return true;
    dx_assert(dep < robTail_, "dependency on an undispatched op");
    return entry(dep).state == EntryState::kComplete;
}

SeqNum
Core::emit(const MicroOp &op)
{
    opBuffer_.push_back(op);
    return nextSeq_++;
}

void
Core::refillOpBuffer()
{
    const std::size_t low = 4 * cfg_.width;
    while (kernel_ && kernel_->more() && opBuffer_.size() < low)
        kernel_->emitChunk(*this);
}

void
Core::dispatch()
{
    refillOpBuffer();

    for (unsigned n = 0; n < cfg_.width; ++n) {
        if (opBuffer_.empty() ||
            bookDispatchStall(1) != DispatchStall::kNone) {
            return;
        }

        const MicroOp &op = opBuffer_.front();

        const SeqNum seq = robTail_;
        RobEntry &e = entry(seq);
        e.op = op;
        e.state = EntryState::kWaiting;
        e.depsLeft = 0;
        e.dependents.clear();

        if (op.kind == OpKind::kLoad)
            ++lqUsed_;
        if (needsSq(op.kind))
            ++sqUsed_;
        if (isFencingKind(op.kind))
            fencing_.push_back(seq);

        for (SeqNum dep : op.deps) {
            if (depSatisfied(dep))
                continue;
            ++e.depsLeft;
            entry(dep).dependents.push_back(seq);
        }
        if (e.depsLeft == 0) {
            e.state = EntryState::kReady;
            if (!isHeadBlockedKind(op.kind))
                readyQueue_.push_back(seq);
        }

        opBuffer_.pop_front();
        ++robTail_;
    }
}

bool
Core::storesDrained() const
{
    return storeBuffer_.empty() && inflightStoreWrites_ == 0 &&
           mmioBuffer_.empty();
}

bool
Core::fencePending(SeqNum seq) const
{
    return !fencing_.empty() && fencing_.front() < seq;
}

void
Core::wakeDependents(RobEntry &e)
{
    for (SeqNum d : e.dependents) {
        RobEntry &de = entry(d);
        dx_assert(de.depsLeft > 0, "dependency underflow");
        if (--de.depsLeft == 0) {
            de.state = EntryState::kReady;
            if (!isHeadBlockedKind(de.op.kind))
                readyQueue_.push_back(d);
        }
    }
    e.dependents.clear();
}

void
Core::markComplete(SeqNum seq)
{
    RobEntry &e = entry(seq);
    dx_assert(e.state != EntryState::kComplete, "double completion");
    e.state = EntryState::kComplete;
    wakeDependents(e);
}

void
Core::complete(const std::uint64_t &tag)
{
    touch();
    if (tag & kStoreTag) {
        dx_assert(sqUsed_ > 0 && inflightStoreWrites_ > 0,
                  "spurious store completion");
        --sqUsed_;
        --inflightStoreWrites_;
        return;
    }
    markComplete(tag);
}

bool
Core::issueMemOp(RobEntry &e, SeqNum seq)
{
    cache::CacheReq req = loadRequest(e.op, seq);
    req.sink = this;
    if (!l1_->canAccept(req))
        return false;
    l1_->request(req);
    e.state = EntryState::kIssued;
    return true;
}

void
Core::issue()
{
    unsigned loadPortsUsed = 0;
    unsigned issued = 0;

    while (issued < cfg_.width && !readyQueue_.empty()) {
        const SeqNum seq = readyQueue_.front();
        RobEntry &e = entry(seq);
        dx_assert(inRob(seq) && e.state == EntryState::kReady,
                  "stale ready-queue entry");

        switch (e.op.kind) {
          case OpKind::kIntAlu:
          case OpKind::kFpAlu:
          case OpKind::kStore:
          case OpKind::kMmioStore: {
            readyQueue_.pop_front();
            e.state = EntryState::kIssued;
            const unsigned lat = std::max<unsigned>(e.op.latency, 1);
            WheelSlot &slot = wheel_[(wheelPos_ + lat) % wheel_.size()];
            e.wheelNext = kNoSeq;
            if (slot.head == kNoSeq)
                slot.head = seq;
            else
                entry(slot.tail).wheelNext = seq;
            slot.tail = seq;
            ++wheelPending_;
            ++issued;
            break;
          }
          case OpKind::kLoad: {
            if (fencePending(seq)) {
                readyQueue_.pop_front();
                fenceBlocked_.push_back(seq);
                break;
            }
            if (loadPortsUsed >= cfg_.loadPorts)
                return;
            if (!issueMemOp(e, seq))
                return; // L1 full: retry next cycle, keep order
            readyQueue_.pop_front();
            ++loadPortsUsed;
            ++issued;
            break;
          }
          default:
            dx_panic("head-blocked op in ready queue");
        }
    }
}

void
Core::commit()
{
    for (unsigned n = 0; n < cfg_.width; ++n) {
        if (robHead_ == robTail_)
            return;
        RobEntry &e = entry(robHead_);

        if (e.state != EntryState::kComplete &&
            isHeadBlockedKind(e.op.kind)) {
            switch (e.op.kind) {
              case OpKind::kRmw:
                // Completes via complete() once the L1 accepts it.
                if (e.state == EntryState::kReady && storesDrained())
                    issueMemOp(e, robHead_);
                return;
              case OpKind::kDxWait:
                ++stats_.waitCycles;
                if (now_ >= nextPollAt_) {
                    nextPollAt_ = now_ + cfg_.pollInterval;
                    stats_.committedOps += cfg_.pollInstrCost;
                    dx_assert(mmio_, "kDxWait without an MMIO device");
                    if (mmio_->mmioReady(e.op.value, id_))
                        markComplete(robHead_);
                }
                return;
              case OpKind::kFence:
                if (e.state == EntryState::kReady && storesDrained())
                    markComplete(robHead_);
                return;
              default:
                dx_panic("unexpected head-blocked kind");
            }
        }

        if (e.state != EntryState::kComplete)
            return;

        // Retire.
        switch (e.op.kind) {
          case OpKind::kLoad:
            --lqUsed_;
            ++stats_.committedLoads;
            break;
          case OpKind::kStore:
            storeBuffer_.push_back(e.op);
            ++stats_.committedStores;
            break;
          case OpKind::kMmioStore:
            mmioBuffer_.push_back({now_ + cfg_.mmioLatency, e.op});
            break;
          case OpKind::kRmw:
            --sqUsed_;
            ++stats_.committedRmws;
            break;
          default:
            break;
        }

        if (isFencingKind(e.op.kind)) {
            dx_assert(!fencing_.empty() && fencing_.front() == robHead_,
                      "fence bookkeeping mismatch");
            fencing_.pop_front();
            for (SeqNum s : fenceBlocked_)
                readyQueue_.push_back(s);
            fenceBlocked_.clear();
        }

        ++stats_.committedOps;
        ++robHead_;
    }
}

void
Core::drainStores()
{
    for (unsigned n = 0; n < cfg_.storeDrain && !storeBuffer_.empty(); ++n) {
        cache::CacheReq req = storeRequest(storeBuffer_.front());
        req.sink = this;
        if (!l1_->canAccept(req))
            return;
        l1_->request(req);
        ++inflightStoreWrites_;
        storeBuffer_.pop_front();
    }
}

void
Core::drainMmio()
{
    if (mmioBuffer_.empty() || mmioBuffer_.front().first > now_)
        return;
    const MicroOp op = mmioBuffer_.front().second;
    mmioBuffer_.pop_front();
    dx_assert(mmio_, "MMIO store without a device");
    mmio_->mmioWrite(op.addr, op.value, id_);
    dx_assert(sqUsed_ > 0, "MMIO SQ underflow");
    --sqUsed_;
}

void
Core::tick()
{
    ++now_;
    ++stats_.cycles;
    stats_.robOccupancyAccum += robTail_ - robHead_;
    stats_.lqOccupancyAccum += lqUsed_;

    // Complete fixed-latency ops scheduled for this cycle.
    wheelPos_ = (wheelPos_ + 1) % static_cast<unsigned>(wheel_.size());
    for (SeqNum seq = wheel_[wheelPos_].head; seq != kNoSeq;) {
        const SeqNum next = entry(seq).wheelNext;
        markComplete(seq);
        --wheelPending_;
        seq = next;
    }
    wheel_[wheelPos_] = {};

    commit();
    issue();
    dispatch();
    drainStores();
    drainMmio();
}

Core::DispatchStall
Core::dispatchStall() const
{
    if (opBuffer_.empty())
        return DispatchStall::kNone;
    if (robTail_ - robHead_ >= cfg_.robSize)
        return DispatchStall::kRob;
    const MicroOp &op = opBuffer_.front();
    if (op.kind == OpKind::kLoad && lqUsed_ >= cfg_.lqSize)
        return DispatchStall::kLq;
    if (needsSq(op.kind) && sqUsed_ >= cfg_.sqSize)
        return DispatchStall::kSq;
    return DispatchStall::kNone;
}

Core::DispatchStall
Core::bookDispatchStall(Cycle n)
{
    const DispatchStall stall = dispatchStall();
    switch (stall) {
      case DispatchStall::kRob:
        stats_.robStallCycles += n;
        break;
      case DispatchStall::kLq:
        stats_.lqStallCycles += n;
        break;
      case DispatchStall::kSq:
        stats_.sqStallCycles += n;
        break;
      case DispatchStall::kNone:
        break;
    }
    return stall;
}

Cycle
Core::nextEventAt() const
{
    // Structural activity a tick would advance: wheel completions,
    // then the ready queue and store drain, which are only no-ops when
    // blocked on a full L1 input queue.
    if (wheelPending_ > 0)
        return now_ + 1;
    if (!readyQueue_.empty()) {
        // issue() pops every entry it examines except a ready load it
        // fails to issue into a full L1 — it returns without popping,
        // so entries behind the front are never reached and the tick
        // is a no-op.
        const SeqNum seq = readyQueue_.front();
        const MicroOp &op = entry(seq).op;
        if (op.kind != OpKind::kLoad || fencePending(seq) ||
            l1_->canAccept(loadRequest(op, seq))) {
            return now_ + 1; // would issue or move to fenceBlocked_
        }
    }
    if (!storeBuffer_.empty() &&
        l1_->canAccept(storeRequest(storeBuffer_.front())))
        return now_ + 1; // drainStores() would issue
    // dispatch() would refill the front-end buffer from the kernel.
    if (kernel_ && kernel_->more() && opBuffer_.size() < 4 * cfg_.width)
        return now_ + 1;
    // dispatch() would move the front-end head into the ROB.
    if (!opBuffer_.empty() && dispatchStall() == DispatchStall::kNone)
        return now_ + 1;
    // Otherwise asleep until the next MMIO delivery or kDxWait poll. A
    // verdict that consulted the L1 holds until the L1 pops a queue
    // entry, which wakes us (arrivals never free space).
    Cycle ev = mmioBuffer_.empty() ? kNeverCycle
                                   : mmioBuffer_.front().first;
    if (robHead_ != robTail_) {
        const RobEntry &e = entry(robHead_);
        // commit() would retire.
        if (e.state == EntryState::kComplete)
            return now_ + 1;
        // commit() would issue a head kRmw or complete a head kFence.
        // A head kDxWait stays quiet between polls: waitCycles is
        // closed-form and the poll itself is the next event.
        if (isFencingKind(e.op.kind) && e.state == EntryState::kReady &&
            storesDrained()) {
            return now_ + 1;
        }
        if (e.op.kind == OpKind::kDxWait)
            ev = std::min(ev, nextPollAt_);
    }
    return ev;
}

void
Core::skipCycles(Cycle n)
{
    now_ += n;
    stats_.cycles += n;
    stats_.robOccupancyAccum += n * (robTail_ - robHead_);
    stats_.lqOccupancyAccum += n * lqUsed_;
    wheelPos_ = static_cast<unsigned>((wheelPos_ + n) % wheel_.size());

    // Exactly the per-cycle counters the naive loop would have bumped
    // while frozen in this state.
    if (robHead_ != robTail_) {
        const RobEntry &e = entry(robHead_);
        if (e.state != EntryState::kComplete &&
            e.op.kind == OpKind::kDxWait) {
            stats_.waitCycles += n;
        }
    }
    bookDispatchStall(n);
}

bool
Core::drained() const
{
    return (!kernel_ || !kernel_->more()) && opBuffer_.empty() &&
           robHead_ == robTail_ && storesDrained();
}

void
Core::registerStats(StatRegistry &reg) const
{
    StatRegistry::Group g = reg.group(path());
    g.counter("committedOps", stats_.committedOps);
    g.counter("committedLoads", stats_.committedLoads);
    g.counter("committedStores", stats_.committedStores);
    g.counter("committedRmws", stats_.committedRmws);
    g.counter("waitCycles", stats_.waitCycles);
    g.counter("robStallCycles", stats_.robStallCycles);
    g.counter("lqStallCycles", stats_.lqStallCycles);
    g.counter("sqStallCycles", stats_.sqStallCycles);
    g.value("cycles", stats_.cycles);

    StatRegistry::Group lsq = g.sub("lsq");
    lsq.value("occupancyAccum", stats_.lqOccupancyAccum);
    lsq.gauge("occupancy", [this] {
        return stats_.cycles ? static_cast<double>(
                                   stats_.lqOccupancyAccum) /
                                   static_cast<double>(stats_.cycles)
                             : 0.0;
    });

    StatRegistry::Group rob = g.sub("rob");
    rob.value("occupancyAccum", stats_.robOccupancyAccum);
    rob.gauge("occupancy", [this] {
        return stats_.cycles ? static_cast<double>(
                                   stats_.robOccupancyAccum) /
                                   static_cast<double>(stats_.cycles)
                             : 0.0;
    });
}

} // namespace dx::cpu
