#include "fleet/fleet.hh"

#include "common/logging.hh"

namespace sharch::fleet {

namespace {

ChipLoad
loadOf(const FabricManager &fm)
{
    return ChipLoad{
        fm.totalSlices() - fm.freeSlices() - fm.faultySlices(),
        fm.totalBanks() - fm.freeBanks() - fm.faultyBanks(),
        fm.fragmentation()};
}

} // namespace

Fleet::Fleet(UtilityOptimizer &opt, const FleetConfig &cfg)
    : opt_(&opt),
      cfg_(cfg),
      chips_(cfg.chips),
      index_(static_cast<unsigned>(cfg.chipWidth))
{
    SHARCH_ASSERT(cfg.chips > 0, "a fleet needs at least one chip");
    SHARCH_ASSERT(cfg.chipWidth >= 1 && cfg.chipHeight >= 2,
                  "chip geometry must be at least 1x2");
    // One throwaway chip yields the per-chip capacity constants (and
    // the virgin index keys) without materializing anything.
    const FabricManager probe(cfg.chipWidth, cfg.chipHeight);
    perChipSlices_ = probe.totalSlices();
    perChipBanks_ = probe.totalBanks();
    // Every chip starts filed as virgin: full run, all banks free.
    // O(chips log chips) once, so the hot path never special-cases
    // virgin slots.
    for (ChipId id = 0; id < cfg.chips; ++id) {
        index_.insert(id, static_cast<unsigned>(cfg.chipWidth),
                      perChipBanks_);
    }
}

Chip &
Fleet::chip(ChipId id)
{
    SHARCH_ASSERT(id < chips_.size(), "chip id out of range");
    if (!chips_[id]) {
        chips_[id] = std::make_unique<Chip>(*opt_, cfg_.chipWidth,
                                            cfg_.chipHeight);
        chips_[id]->load = loadOf(chips_[id]->fabric);
        materialized_++;
    }
    return *chips_[id];
}

std::optional<Placement>
Fleet::place(unsigned slices, unsigned banks)
{
    const std::optional<ChipId> where = index_.find(slices, banks);
    if (!where)
        return std::nullopt;
    Chip &c = chip(*where);
    const std::optional<AllocationId> local =
        c.fabric.allocate(slices, banks);
    // The index key is exact (largest free run, free banks), so a
    // chip the index offered must accept the shape.
    SHARCH_ASSERT(local.has_value(),
                  "placement index offered a chip that refused");
    refreshChip(*where);
    return Placement{*where, *local};
}

bool
Fleet::release(ChipId id, AllocationId local)
{
    if (!isMaterialized(id))
        return false;
    if (!chips_[id]->fabric.release(local))
        return false;
    refreshChip(id);
    return true;
}

std::vector<DegradeAction>
Fleet::markFaulty(ChipId id, fault::FaultKind kind, Coord tile)
{
    std::vector<DegradeAction> acts =
        chip(id).fabric.markFaulty(kind, tile);
    refreshChip(id);
    return acts;
}

bool
Fleet::heal(ChipId id, fault::FaultKind kind, Coord tile)
{
    if (!isMaterialized(id))
        return false; // virgin chips have no faults to heal
    if (!chips_[id]->fabric.heal(kind, tile))
        return false;
    refreshChip(id);
    return true;
}

bool
Fleet::isFaulty(ChipId id, fault::FaultKind kind, Coord tile) const
{
    const Chip *c = peek(id);
    return c && c->fabric.isFaulty(kind, tile);
}

void
Fleet::refreshChip(ChipId id)
{
    SHARCH_ASSERT(isMaterialized(id),
                  "cannot refresh a virgin chip");
    Chip &c = *chips_[id];
    index_.update(id, c.fabric.largestFreeRun(), c.fabric.freeBanks());
    c.load = loadOf(c.fabric);
}

bool
Fleet::restoreChip(ChipId id, const FabricSnapshot &fab,
                   const SpotMarketSnapshot &mkt, std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    if (id >= cfg_.chips)
        return fail("chip id " + std::to_string(id) +
                    " exceeds the fleet size (" +
                    std::to_string(cfg_.chips) + " chips)");
    if (fab.width != cfg_.chipWidth || fab.height != cfg_.chipHeight)
        return fail("chip " + std::to_string(id) + " is " +
                    std::to_string(fab.width) + "x" +
                    std::to_string(fab.height) +
                    " but the fleet's chips are " +
                    std::to_string(cfg_.chipWidth) + "x" +
                    std::to_string(cfg_.chipHeight));
    Chip &c = chip(id);
    std::string ferr;
    if (!c.fabric.restore(fab, &ferr))
        return fail("chip " + std::to_string(id) + ": " + ferr);
    SpotMarketSnapshot copy = mkt;
    c.market.restore(copy);
    refreshChip(id);
    return true;
}

bool
Fleet::checkIndex(std::string *error) const
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    for (ChipId id = 0; id < cfg_.chips; ++id) {
        const auto keys = index_.keys(id);
        if (!keys)
            return fail("chip " + std::to_string(id) +
                        " is missing from the placement index");
        unsigned run = static_cast<unsigned>(cfg_.chipWidth);
        unsigned banks = perChipBanks_;
        if (const Chip *c = peek(id)) {
            run = c->fabric.largestFreeRun();
            banks = c->fabric.freeBanks();
            const ChipLoad live = loadOf(c->fabric);
            if (c->load.usedSlices != live.usedSlices ||
                c->load.usedBanks != live.usedBanks ||
                c->load.fragmentation != live.fragmentation) {
                return fail(
                    "chip " + std::to_string(id) +
                    " records (" + std::to_string(c->load.usedSlices) +
                    " Slices, " + std::to_string(c->load.usedBanks) +
                    " banks used, fragmentation " +
                    std::to_string(c->load.fragmentation) +
                    ") but its fabric has (" +
                    std::to_string(live.usedSlices) + ", " +
                    std::to_string(live.usedBanks) + ", " +
                    std::to_string(live.fragmentation) + ")");
            }
        }
        if (keys->first != run || keys->second != banks) {
            return fail(
                "placement index files chip " + std::to_string(id) +
                " under (run " + std::to_string(keys->first) +
                ", banks " + std::to_string(keys->second) +
                ") but the chip offers (run " + std::to_string(run) +
                ", banks " + std::to_string(banks) + ")");
        }
    }
    return true;
}

} // namespace sharch::fleet
