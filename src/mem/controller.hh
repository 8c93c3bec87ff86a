/**
 * @file
 * A single-channel DDR4 memory controller with an FR-FCFS scheduler.
 *
 * The controller owns a bounded request buffer (32 entries by default,
 * per paper Table 3) and a write buffer with drain watermarks. Every
 * controller cycle it issues at most one DRAM command, chosen
 * first-ready-first-come-first-served: ready column commands to open rows
 * win over row commands; among equals, the oldest request wins. All DDR4
 * bank/bank-group/rank timing constraints from DramTimings are enforced,
 * including tCCD_S/tCCD_L bank-group spacing, tFAW, write-to-read
 * turnaround, and periodic all-bank refresh.
 *
 * Scheduling is bank-indexed: per bank and queue the controller keeps
 * the number of queued entries and how many of them hit the open row,
 * updated only where those change (enqueue, column issue, ACT, PRE).
 * Each command class first checks, in O(banks), whether any bank can
 * take it this cycle, and only then walks the queue in age order to
 * pick the oldest eligible entry, so the FR-FCFS choice is the same as
 * a full rescan's. A channel has at most 64 banks (one 64-bit mask).
 *
 * Clock domains: the controller runs at the DRAM command clock, one
 * controller cycle per clockRatio core cycles (1.6 GHz under a 3.2 GHz
 * core for DDR4-3200). tick() and skipCycles() count core cycles, and
 * nextEventAt() answers in core cycles, so each channel is its own
 * slot in the System's wake list (DESIGN.md §4c); controller cycle c
 * falls on core cycle c * clockRatio. now() and every timing field
 * stay in controller cycles.
 */

#ifndef DX_MEM_CONTROLLER_HH
#define DX_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/dram_timings.hh"
#include "mem/request.hh"
#include "sim/component.hh"

namespace dx::mem
{

class MemoryController final : public Component
{
  public:
    struct Config
    {
        DramTimings timings;
        DramGeometry geom;
        unsigned readQueueSize = 32;
        unsigned writeQueueSize = 32;
        unsigned writeHiWatermark = 24;
        unsigned writeLoWatermark = 8;
        unsigned writeBurstMax = 24; //!< writes per drain when reads wait
    };

    struct Stats
    {
        Counter cycles;
        Counter readsServed;
        Counter writesServed;
        Counter rowHits;       //!< column commands needing no ACT
        Counter rowMisses;     //!< column commands that required an ACT
        Counter rowConflicts;  //!< requests that forced a PRE first
        Counter actCommands;
        Counter preCommands;
        Counter refCommands;
        Counter busBusyCycles; //!< data-bus occupancy in controller cycles
        std::uint64_t occupancyAccum = 0; //!< sum of queue sizes per cycle

        double
        rowHitRate() const
        {
            const double total =
                static_cast<double>(rowHits.value() + rowMisses.value());
            return total > 0 ? rowHits.value() / total : 0.0;
        }

        double
        busUtilization() const
        {
            return cycles.value()
                ? static_cast<double>(busBusyCycles.value()) /
                      cycles.value()
                : 0.0;
        }
    };

    /** @p clockRatio core cycles make one controller cycle. */
    MemoryController(const Config &cfg, unsigned channelId,
                     unsigned clockRatio = 1);

    /** True if a request of the given type can be enqueued right now. */
    bool canAccept(bool write) const;

    /** Enqueue a request; canAccept(write) must be true. */
    void enqueue(const MemRequest &req);

    /**
     * Wake @p client (Component::departure) whenever an entry leaves
     * the request buffers, so a sender refused admission may sleep.
     */
    void addClient(Component &client) { clients_.push_back(&client); }

    /** Advance one core clock cycle; every clockRatio-th runs the
     *  controller for one of its cycles. */
    void tick();

    /**
     * Tick contract (see DESIGN.md §4c): the core cycle of the
     * conservative earliest controller cycle at which tick() could
     * act — the head in-flight response, the next refresh deadline, a
     * pending write-mode toggle, or the earliest command a bank with
     * entries in the queue being served could take
     * (earliestCommandAt). May be earlier than the true event (that
     * only degrades to normal ticking), never later. Every tick
     * before it would be a no-op
     * except for the closed-form per-cycle stats (cycles,
     * occupancyAccum). The O(banks) scan is cached until a productive
     * tick; an enqueue folds the new entry into the cache.
     */
    Cycle
    nextEventAt() const
    {
        if (!eventHintValid_)
            refreshEventHint();
        // An overdue candidate (e.g. a second issuable entry the one-
        // command-per-cycle limit postponed) means "could act next
        // controller cycle".
        return eventHint_ == kNeverCycle
                   ? kNeverCycle
                   : std::max(eventHint_, now_ + 1) * ratio_;
    }

    /**
     * Closed-form advance over @p n core cycles the caller has proven
     * quiet: folds the divider phase forward over the controller
     * cycles they cover.
     */
    void
    skipCycles(Cycle n)
    {
        const Cycle ticks = (phase_ + n) / ratio_;
        phase_ = static_cast<unsigned>((phase_ + n) % ratio_);
        now_ += ticks;
        stats_.cycles += ticks;
        stats_.occupancyAccum +=
            ticks * (readQueue_.size() + writeQueue_.size());
    }

    /** Current controller cycle. */
    Cycle now() const { return now_; }

    /** True when both queues and in-flight responses are empty. */
    bool drained() const;

    /**
     * Panic unless the per-bank queue counts agree with a drained
     * controller: every Bank::queued and Bank::rowHits zero and no
     * bank marked busy. Checked once per run, after the drain.
     */
    void auditDrained() const;

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    /** Monotonic count of entries that left the request buffers
     *  (column command issued). */
    std::uint64_t dequeueCount() const { return dequeues_; }

    const Stats &stats() const { return stats_; }
    const Config &config() const { return cfg_; }
    unsigned channelId() const { return channel_; }

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        Cycle nextAct = 0;
        Cycle nextPre = 0;
        Cycle nextRd = 0;
        Cycle nextWr = 0;
        // Indexed by queue (0 reads, 1 writes): entries queued for this
        // bank, and how many of them target openRow.
        unsigned queued[2] = {0, 0};
        unsigned rowHits[2] = {0, 0};
    };

    struct Entry
    {
        MemRequest req;
        bool neededAct = false; //!< an ACT was issued on its behalf
        std::uint8_t bank = 0;  //!< flat bank within the channel
    };

    struct PendingResp
    {
        Cycle ready;
        MemRequest req;
    };

    // Scheduling helpers; each returns true if a command was issued.
    bool tryRefresh();
    bool tryIssueFrom(std::vector<Entry> &queue, bool writes);
    bool tryColumn(std::vector<Entry> &queue, bool writes);
    bool tryActivate(std::vector<Entry> &queue, bool writes);
    bool tryPrecharge(std::vector<Entry> &queue, bool writes);

    /** Mask of the banks with entries in one queue that satisfy
     *  @p pred — the O(banks) check before any queue walk. */
    template <typename Pred>
    std::uint64_t banksWhere(bool writes, Pred pred) const;

    /**
     * The write-drain hysteresis condition, shared by tick() and the
     * nextEventAt() hint so the two cannot diverge: true when this
     * cycle's mode check would flip writeMode_.
     */
    bool wouldToggleWriteMode() const;

    /** Earliest cycle the tFAW window admits another ACT. */
    Cycle fawReadyAt() const;

    /** Earliest command any bank with entries in the served queue
     *  could take (bank timers, tFAW and the row-hit pin). */
    Cycle earliestCommandAt() const;

    /** Recompute and cache the nextEventAt() hint (slow path). */
    void refreshEventHint() const;

    void issueRead(Entry &e);
    void issueWrite(Entry &e);
    void issueAct(unsigned b, std::uint32_t row, std::uint16_t bankGroup);
    void issuePre(unsigned b);

    /** Deliver due responses; true when at least one was delivered. */
    bool deliverResponses();

    const Config cfg_;
    const unsigned channel_;
    const unsigned ratio_; //!< core cycles per controller cycle
    unsigned phase_ = 0;   //!< core cycles since the last controller cycle
    Cycle now_ = 0;        //!< controller cycle
    std::vector<Component *> clients_;

    std::vector<Bank> banks_;       //!< per (rank, bg, bank) in channel
    std::vector<Entry> readQueue_;
    std::vector<Entry> writeQueue_;
    std::uint64_t busyBanks_[2] = {0, 0}; //!< per queue: queued > 0
    std::deque<PendingResp> pending_;

    std::uint64_t dequeues_ = 0; //!< entries that left the buffers

    bool writeMode_ = false;
    unsigned writeBurst_ = 0;
    unsigned readCredit_ = 0;
    bool refreshPending_ = false;
    Cycle nextRefresh_;
    std::deque<Cycle> actWindow_;   //!< timestamps of recent ACTs (tFAW)

    // nextEventAt() cache: hint values are absolute cycles, so only
    // state changes (tick, enqueue) touch it — skipCycles keeps it.
    mutable Cycle eventHint_ = 0;
    mutable bool eventHintValid_ = false;

    Stats stats_;
};

} // namespace dx::mem

#endif // DX_MEM_CONTROLLER_HH
