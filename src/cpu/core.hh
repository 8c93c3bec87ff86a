/**
 * @file
 * Cycle-level out-of-order core model.
 *
 * Models the structures that bound memory-level parallelism in the
 * paper's baseline (Table 3): issue width, ROB, load and store queues,
 * cache MSHRs (via the attached hierarchy), the dependence chains between
 * index loads / address arithmetic / indirect accesses, and x86-style
 * locked RMW semantics (issue at ROB head with drained store buffer,
 * fencing younger memory ops). Fetch/decode details and branch
 * prediction are intentionally not modeled; every committed micro-op
 * counts as one instruction.
 */

#ifndef DX_CPU_CORE_HH
#define DX_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/cache_if.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/microop.hh"
#include "cpu/mmio.hh"
#include "sim/component.hh"

namespace dx::cpu
{

class Core final : public Component,
                   public cache::CacheRespSink,
                   public OpEmitter
{
  public:
    struct Config
    {
        unsigned width = 8;        //!< dispatch/commit width
        unsigned robSize = 224;
        unsigned lqSize = 72;
        unsigned sqSize = 56;
        unsigned loadPorts = 2;    //!< loads issued to L1 per cycle
        unsigned storeDrain = 1;   //!< post-commit stores to L1 per cycle
        unsigned mmioLatency = 40; //!< core->device one-way, cycles
        unsigned pollInterval = 60;  //!< wait-loop poll period
        unsigned pollInstrCost = 3;  //!< spin-loop instructions per poll
    };

    struct Stats
    {
        Counter committedOps;
        Counter committedLoads;
        Counter committedStores;
        Counter committedRmws;
        Counter waitCycles;      //!< cycles stalled in kDxWait at head
        Counter robStallCycles;  //!< dispatch blocked: ROB full
        Counter lqStallCycles;
        Counter sqStallCycles;
        std::uint64_t lqOccupancyAccum = 0;
        std::uint64_t robOccupancyAccum = 0;
        std::uint64_t cycles = 0;
    };

    Core(const Config &cfg, int id, cache::CachePort *l1);

    /** Attach the kernel supplying this core's op stream. */
    void
    setKernel(Kernel *kernel)
    {
        touch();
        kernel_ = kernel;
    }

    /** Attach the MMIO device (DX100 instance) visible to this core. */
    void setMmioDevice(MmioDevice *dev) { mmio_ = dev; }

    /** Advance one core cycle. */
    void tick();

    /**
     * Tick contract (see DESIGN.md §4c): the earliest cycle tick()
     * could act again without external stimulus — the next MMIO
     * delivery or kDxWait poll, kNeverCycle when only a cache response
     * or an L1 departure can wake us — or now + 1 when the next tick
     * must run. Quiet means tick() would change nothing but the
     * closed-form per-cycle stats (cycles, occupancy integrals, the
     * current stall counter, kDxWait waitCycles): no wheel completion,
     * nothing issuable, nothing dispatchable, no store drain, no head
     * retirement.
     */
    Cycle nextEventAt() const;

    /**
     * Closed-form advance over @p n cycles nextEventAt() proved quiet,
     * accumulating exactly the stats the naive per-cycle loop would
     * have.
     */
    void skipCycles(Cycle n);

    /** Kernel exhausted and every buffer drained. */
    bool drained() const;

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    std::vector<PortRef>
    portRefs() const override
    {
        return {{l1_.name(), l1_.bound()}};
    }

    // OpEmitter: queue an op into the front-end buffer.
    SeqNum emit(const MicroOp &op) override;

    // CacheRespSink: load/store/RMW completions from L1.
    void complete(const std::uint64_t &tag) override;

    const Stats &stats() const { return stats_; }
    int id() const { return id_; }

  private:
    enum class EntryState : std::uint8_t
    {
        kWaiting,   //!< dependencies outstanding
        kReady,     //!< in the ready queue
        kIssued,    //!< executing
        kComplete,  //!< result available
    };

    struct RobEntry
    {
        MicroOp op;
        EntryState state = EntryState::kWaiting;
        unsigned depsLeft = 0;
        std::vector<SeqNum> dependents;
        SeqNum wheelNext = kNoSeq; //!< next op due in the same cycle
    };

    // Pipeline stages, called in tick().
    void refillOpBuffer();
    void dispatch();
    void issue();
    void commit();
    void drainStores();
    void drainMmio();

    /**
     * Why dispatch() would stall on the front-end head this cycle
     * (kNone = it would dispatch, or the buffer is empty). Shared by
     * dispatch(), nextEventAt() and skipCycles() so the skipped stall
     * counters match the naive loop's bit-for-bit.
     */
    enum class DispatchStall : std::uint8_t
    {
        kNone,
        kRob,
        kLq,
        kSq,
    };
    DispatchStall dispatchStall() const;
    /** dispatchStall(), booked on its counter for @p n cycles. */
    DispatchStall bookDispatchStall(Cycle n);

    RobEntry &entry(SeqNum seq);
    const RobEntry &entry(SeqNum seq) const;
    bool inRob(SeqNum seq) const;
    bool depSatisfied(SeqNum dep) const;
    void markComplete(SeqNum seq);
    void wakeDependents(RobEntry &e);
    bool issueMemOp(RobEntry &e, SeqNum seq);
    bool fencePending(SeqNum seq) const;
    /** Store buffer, in-flight store writes and MMIO buffer all empty. */
    bool storesDrained() const;

    const Config cfg_;
    const int id_;
    PortSlot<cache::CacheReq> l1_{"l1"};
    Kernel *kernel_ = nullptr;
    MmioDevice *mmio_ = nullptr;

    Cycle now_ = 0;

    // Front-end buffer between the kernel and dispatch.
    std::deque<MicroOp> opBuffer_;
    SeqNum nextSeq_ = 1;     //!< seq of the next op to be *emitted*

    // ROB ring: seq of the oldest in-flight op is robHead_; robTail_ is
    // also the seq of opBuffer_.front().
    std::vector<RobEntry> rob_;
    SeqNum robHead_ = 1;
    SeqNum robTail_ = 1; //!< seq the next dispatched op will get
    unsigned lqUsed_ = 0;
    unsigned sqUsed_ = 0;

    // Ready-queue invariant: an entry is pushed once, when its last
    // dependency completes (or at dispatch), unless its kind waits for
    // the ROB head (kRmw, kDxWait, kFence). It leaves only through
    // issue(), which issues it or parks it in fenceBlocked_, and only
    // issue() changes a ready entry's state; since an entry leaves the
    // ROB only after it completes, every queued seq is in the ROB and
    // kReady. A dependent is younger than its producer, so it is still
    // in the ROB and kWaiting when the producer wakes it.
    std::deque<SeqNum> readyQueue_;
    std::vector<SeqNum> fenceBlocked_; //!< mem ops held by an older fence

    // Execution completion wheel for fixed-latency ALU ops: per cycle,
    // a FIFO of the ops due then, linked through RobEntry::wheelNext.
    struct WheelSlot
    {
        SeqNum head = kNoSeq;
        SeqNum tail = kNoSeq;
    };
    std::vector<WheelSlot> wheel_;
    unsigned wheelPos_ = 0;
    unsigned wheelPending_ = 0; //!< entries across all wheel slots

    // In-flight fencing ops (kRmw/kFence), oldest first.
    std::deque<SeqNum> fencing_;

    // Post-commit L1 store writes awaiting completion (SQ slots held).
    unsigned inflightStoreWrites_ = 0;

    // Post-commit store drain: stores awaiting L1 acceptance. The SQ
    // slot is released when the L1 write completes.
    std::deque<MicroOp> storeBuffer_;
    // Post-commit MMIO stores: delivered in order after mmioLatency.
    std::deque<std::pair<Cycle, MicroOp>> mmioBuffer_;

    Cycle nextPollAt_ = 0;

    Stats stats_;
};

} // namespace dx::cpu

#endif // DX_CPU_CORE_HH
