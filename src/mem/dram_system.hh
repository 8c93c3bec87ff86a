/**
 * @file
 * Multi-channel DRAM system: routes line requests to per-channel FR-FCFS
 * controllers and bridges the core clock domain (3.2 GHz) to the
 * controller clock domain (1.6 GHz for DDR4-3200).
 */

#ifndef DX_MEM_DRAM_SYSTEM_HH
#define DX_MEM_DRAM_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/address_map.hh"
#include "mem/controller.hh"
#include "mem/request.hh"
#include "sim/component.hh"

namespace dx::mem
{

class DramSystem final : public Component
{
  public:
    struct Config
    {
        MemoryController::Config ctrl;
        MapOrder order = MapOrder::kChBgCoBaRo;
        unsigned clockRatio = 2; //!< core cycles per controller cycle
    };

    explicit DramSystem(const Config &cfg);

    const AddressMap &addressMap() const { return map_; }
    const DramGeometry &geometry() const { return cfg_.ctrl.geom; }
    unsigned channels() const { return cfg_.ctrl.geom.channels; }

    /** Channel a byte/line address maps to. */
    unsigned channelOf(Addr addr) const;

    /** True if the owning channel can buffer this request now. */
    bool canAccept(Addr lineAddr, bool write) const;

    /**
     * Wake @p client (Component::departure) on every controller tick
     * that moves an entry out of a channel's request buffers.
     */
    void addClient(Component &client) { clients_.push_back(&client); }

    /** Enqueue a line request; canAccept must hold. */
    void access(Addr lineAddr, bool write, Origin origin,
                std::uint64_t tag, MemRespSink *sink);

    /** Advance one core clock cycle. */
    void tick() { advance(false); }

    /**
     * Advance one core clock cycle, skipping quiet channels on a
     * controller-clock edge via their closed-form skipCycles instead of
     * ticking them. Observable-state equivalent to tick().
     */
    void tickScheduled() { advance(true); }

    /**
     * Earliest *core* cycle any channel could act, translated from the
     * controller clock domain through the divider phase; kNeverCycle
     * when every channel is idle with no timers running.
     */
    Cycle nextEventAt() const;

    /**
     * Closed-form advance over @p n core cycles the caller has proven
     * quiet: folds the divider phase forward and skips the covered
     * controller cycles in every channel.
     */
    void skipCycles(Cycle n);

    /** True when all channels are drained. */
    bool drained() const;

    // Component introspection (system-wide aggregates; the channels
    // register their own per-channel groups as children).
    void registerStats(StatRegistry &reg) const override;

    MemoryController &channel(unsigned i) { return *channels_[i]; }
    const MemoryController &channel(unsigned i) const
    {
        return *channels_[i];
    }

    /** Aggregate data-bus utilization across channels, in [0, 1]. */
    double busUtilization() const;

    /** Aggregate row-buffer hit rate across channels, in [0, 1]. */
    double rowHitRate() const;

    /** Mean request-buffer occupancy as a fraction of capacity. */
    double queueOccupancy() const;

    /** Total lines transferred (reads + writes). */
    std::uint64_t linesTransferred() const;

    /** Peak bandwidth in bytes per core cycle (for utilization math). */
    double peakBytesPerCoreCycle() const;

  private:
    /** One core cycle; @p skipQuiet skips channels with no event due. */
    void advance(bool skipQuiet);

    const Config cfg_;
    AddressMap map_;
    std::vector<std::unique_ptr<MemoryController>> channels_;
    std::vector<Component *> clients_;
    std::uint64_t totalDequeues_ = 0; //!< sum over the channels
    unsigned phase_ = 0; //!< core cycles since last controller tick
    Cycle now_ = 0;      //!< core-domain clock
};

} // namespace dx::mem

#endif // DX_MEM_DRAM_SYSTEM_HH
