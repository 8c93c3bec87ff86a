/**
 * @file
 * Multi-channel DRAM system: routes line requests to per-channel FR-FCFS
 * controllers, each of which runs at the controller clock (1.6 GHz for
 * DDR4-3200 under a 3.2 GHz core; see MemoryController).
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
     * Wake @p client (Component::departure) whenever an entry leaves
     * any channel's request buffers.
     */
    void addClient(Component &client);

    /**
     * Enqueue a line request; canAccept must hold. @p sink (may be
     * null) is completed with @p tag when a read's data returns or a
     * write issues.
     */
    void access(Addr lineAddr, bool write, std::uint64_t tag,
                Completion<std::uint64_t> *sink);

    /**
     * Advance every channel one core clock cycle, for rigs that drive
     * the DRAM system alone; a System ticks each channel as its own
     * wake-list slot.
     */
    void tick();

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

  private:
    const Config cfg_;
    AddressMap map_;
    std::vector<std::unique_ptr<MemoryController>> channels_;
};

} // namespace dx::mem

#endif // DX_MEM_DRAM_SYSTEM_HH
