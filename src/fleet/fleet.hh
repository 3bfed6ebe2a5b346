/**
 * @file
 * A datacenter fleet of Sharing Architecture chips (ISSUE 10's
 * tentpole, scaling ROADMAP item 5's one-chip hypervisor out to
 * thousands).
 *
 * Each chip is one FabricManager + SpotMarket pair -- exactly the
 * state AllocationEngine manages for a single chip -- but chips are
 * *lazily materialized*: a virgin chip is a null slot plus a
 * placement-index entry (full run, all banks free), and the real
 * allocator/market objects are built on first touch.  A fleet of
 * 100k chips serving a few thousand tenants therefore costs memory
 * proportional to the chips actually used.
 *
 * Placement goes through the tiered PlacementIndex: admit, release,
 * fault, heal, and reshape all re-file only the touched chip, so
 * per-event work is O(chipArea + width * log chips) -- sublinear in
 * fleet size, which is what makes the 100k-event datacenter_churn
 * horizon tractable (EXPERIMENTS.md records the measurement).
 *
 * Fleet is pure mechanism: it does not know about events, leases, or
 * tenants.  FleetEngine (fleet_engine.hh) owns the policy and drives
 * everything through the engine's typed-event spine.
 */

#ifndef SHARCH_FLEET_FLEET_HH
#define SHARCH_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/placement_index.hh"
#include "hyper/fabric_manager.hh"
#include "hyper/spot_market.hh"

namespace sharch::fleet {

/** Fixed fleet geometry. */
struct FleetConfig
{
    ChipId chips = 1024;       //!< chips in the fleet
    int chipWidth = 8;         //!< tiles per chip row
    int chipHeight = 8;        //!< rows per chip (>= 2)
};

/** A chip's occupancy as epoch samples read it. */
struct ChipLoad
{
    unsigned usedSlices = 0; //!< leased: neither free nor faulty
    unsigned usedBanks = 0;
    double fragmentation = 0.0; //!< FabricManager::fragmentation()
};

/** One materialized chip: allocator + its spot market. */
struct Chip
{
    Chip(UtilityOptimizer &opt, int width, int height)
        : fabric(width, height),
          market(opt, fabric.totalSlices(), fabric.totalBanks())
    {
    }

    FabricManager fabric;
    SpotMarket market;
    /** The fabric's occupancy, recorded by Fleet on materialization
     *  and on every refreshChip(); checkIndex() audits it. */
    ChipLoad load;
};

/** Where one admission landed. */
struct Placement
{
    ChipId chip = 0;
    AllocationId local = 0; //!< the chip-level allocation id
};

class Fleet
{
  public:
    Fleet(UtilityOptimizer &opt, const FleetConfig &cfg);

    const FleetConfig &config() const { return cfg_; }
    ChipId chipCount() const { return cfg_.chips; }
    ChipId materializedChips() const { return materialized_; }
    unsigned perChipSlices() const { return perChipSlices_; }
    unsigned perChipBanks() const { return perChipBanks_; }

    bool isMaterialized(ChipId id) const
    {
        return id < chips_.size() && chips_[id] != nullptr;
    }

    /**
     * The chip object, materializing a virgin slot on first touch.
     * @pre id < chipCount()
     */
    Chip &chip(ChipId id);

    /** The chip object without materializing (nullptr: virgin). */
    const Chip *peek(ChipId id) const
    {
        return id < chips_.size() ? chips_[id].get() : nullptr;
    }

    /**
     * Best-fit admission through the index: nullopt when no chip in
     * the whole fleet can place (slices, banks).
     */
    std::optional<Placement> place(unsigned slices, unsigned banks);

    /** Release one allocation and re-file the chip. */
    bool release(ChipId id, AllocationId local);

    /** Route a fault to a chip (materializing it) and re-file. */
    std::vector<DegradeAction> markFaulty(ChipId id,
                                          fault::FaultKind kind,
                                          Coord tile);

    /** Return a chip tile to service and re-file. */
    bool heal(ChipId id, fault::FaultKind kind, Coord tile);

    bool isFaulty(ChipId id, fault::FaultKind kind, Coord tile) const;

    /**
     * Re-derive a chip's index keys and its recorded ChipLoad after
     * any fabric mutation (Fleet's own, and out-of-band ones such as
     * reshape, defragment, checkpoint restore).
     */
    void refreshChip(ChipId id);

    /**
     * Adopt a restored chip state wholesale (checkpoint restore).
     * Geometry must match the fleet's; @return false with @p error
     * positioned otherwise.  The slot is materialized if virgin.
     */
    bool restoreChip(ChipId id, const FabricSnapshot &fab,
                     const SpotMarketSnapshot &mkt,
                     std::string *error);

    /**
     * Every index key matches the chip it summarizes (virgin slots
     * included), and every materialized chip's recorded ChipLoad
     * matches its fabric.  @return false with @p error naming the
     * first stale entry.
     */
    bool checkIndex(std::string *error) const;

    PlacementIndex &index() { return index_; }
    const PlacementIndex &index() const { return index_; }

  private:
    UtilityOptimizer *opt_;
    FleetConfig cfg_;
    unsigned perChipSlices_ = 0;
    unsigned perChipBanks_ = 0;
    std::vector<std::unique_ptr<Chip>> chips_;
    ChipId materialized_ = 0;
    PlacementIndex index_;
};

} // namespace sharch::fleet

#endif // SHARCH_FLEET_FLEET_HH
