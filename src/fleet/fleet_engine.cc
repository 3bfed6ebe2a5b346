#include "fleet/fleet_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "engine/state_json.hh"
#include "trace/profile.hh"

namespace sharch::fleet {

using engine::Event;
using engine::EventKind;

namespace {

/** Tatonnement bound per dirty chip: one fleet epoch clears many
 *  chips, so each gets fewer rounds than a single chip's
 *  kClearingRounds. */
constexpr unsigned kChipEpochRounds = 12;

} // namespace

FleetEngine::FleetEngine(UtilityOptimizer &opt,
                         const FleetEngineConfig &cfg)
    : EngineBase(cfg.maxPending),
      opt_(&opt),
      cfg_(cfg),
      fleet_(opt, cfg.fleet)
{
    SHARCH_ASSERT(cfg.epochPeriod > 0,
                  "the epoch period must be positive");
}

void
FleetEngine::startStream(const WorkloadStream &stream,
                         std::uint64_t count)
{
    SHARCH_ASSERT(streamEnd_ == 0 && now() == 0,
                  "startStream needs a fresh engine");
    SHARCH_ASSERT(count > 0, "an empty stream drives nothing");
    stream_ = &stream;
    streamPrev_ = 0;
    streamEnd_ = count;
    const FleetTenant t0 = stream.tenant(0, 0);
    post(engine::fleetArrive(t0.at, t0.name, t0.benchmark, t0.utility,
                             t0.budget, t0.slices, t0.banks,
                             t0.lifetime));
    post(engine::epochAuction(cfg_.epochPeriod));
}

void
FleetEngine::postFaultSchedule(
    ChipId chip, const std::vector<fault::FaultEvent> &fs)
{
    for (const fault::FaultEvent &ev : fs) {
        Event e = ev.heal
                      ? engine::healFault(ev.at, ev.kind, ev.tile)
                      : engine::faultStrike(ev.at, ev.kind, ev.tile);
        e.chip = static_cast<int>(chip);
        post(e);
    }
}

std::uint64_t
FleetEngine::leasedSlices() const
{
    std::uint64_t total = 0;
    for (const auto &[id, lease] : leases_)
        total += lease.slices;
    return total;
}

std::uint64_t
FleetEngine::leasedBanks() const
{
    std::uint64_t total = 0;
    for (const auto &[id, lease] : leases_)
        total += lease.banks;
    return total;
}

void
FleetEngine::dispatchEvent(const Event &e)
{
    switch (e.kind) {
      case EventKind::FleetArrive: handleFleetArrive(e); break;
      case EventKind::FleetDepart: handleFleetDepart(e); break;
      case EventKind::EpochAuction: handleEpochAuction(); break;
      case EventKind::FaultStrike: handleFault(e); break;
      case EventKind::Heal: handleHeal(e); break;
      case EventKind::Reshape: handleReshape(e); break;
      case EventKind::Checkpoint:
        break; // EngineBase consumes Checkpoints before this point
      case EventKind::TenantArrive:
      case EventKind::TenantDepart:
      case EventKind::AuctionEpoch:
        lastOutcome_.detail =
            std::string(engine::eventKindName(e.kind)) +
            " is a single-chip event; this is a fleet engine";
        break;
    }
}

void
FleetEngine::handleFleetArrive(const Event &e)
{
    stats_.arrivals++;

    // Stream refill: dispatching arrival i posts arrival i+1, so
    // exactly one stream arrival is ever pending -- the queue entry
    // is the whole workload cursor a checkpoint needs.
    if (streamEnd_ != 0 && streamPrev_ + 1 < streamEnd_ &&
        e.tenant == WorkloadStream::tenantName(streamPrev_)) {
        SHARCH_ASSERT(stream_ != nullptr,
                      "stream checkpoint resumed without "
                      "resumeStream()");
        const FleetTenant t =
            stream_->tenant(streamPrev_ + 1, e.at);
        post(engine::fleetArrive(t.at, t.name, t.benchmark,
                                 t.utility, t.budget, t.slices,
                                 t.banks, t.lifetime));
        streamPrev_++;
    }

    if (e.slices == 0) {
        stats_.rejected++;
        lastOutcome_.detail = "a fleet tenant needs at least one "
                              "Slice";
        return;
    }
    if (byName_.count(e.tenant)) {
        stats_.rejected++;
        lastOutcome_.detail =
            "tenant '" + e.tenant + "' already holds a lease";
        return;
    }
    if (e.budget > 0.0 && !hasProfile(e.benchmark)) {
        stats_.rejected++;
        lastOutcome_.detail =
            "unknown benchmark '" + e.benchmark +
            "' (see ssim --list for valid profiles)";
        return;
    }

    const std::optional<Placement> where =
        fleet_.place(e.slices, e.banks);
    if (!where) {
        // An SLA violation: no chip in the fleet can host the shape.
        stats_.rejected++;
        lastOutcome_.detail =
            "no chip can place " + std::to_string(e.slices) +
            " Slices + " + std::to_string(e.banks) + " banks";
        return;
    }
    admitLease(e, *where);
}

void
FleetEngine::admitLease(const Event &e, const Placement &where)
{
    Chip &c = fleet_.chip(where.chip);
    FleetLease lease;
    lease.id = nextLease_++;
    lease.tenant = e.tenant;
    lease.chip = where.chip;
    lease.local = where.local;
    const FabricAllocation *fa = c.fabric.find(where.local);
    lease.slices = fa->slices.count;
    lease.banks = static_cast<unsigned>(fa->banks.size());
    lease.arrivedAt = now();
    if (e.budget > 0.0) {
        SpotCustomer cust;
        cust.name = e.tenant;
        cust.benchmark = e.benchmark;
        cust.utility = e.utility;
        cust.budget = e.budget;
        lease.customer = c.market.addCustomer(std::move(cust));
        lease.hasCustomer = true;
        dirty_.insert(where.chip);
    }
    byName_.emplace(lease.tenant, lease.id);
    byLocal_.emplace(std::make_pair(where.chip, where.local),
                     lease.id);
    const std::uint64_t id = lease.id;
    leases_.emplace(id, std::move(lease));
    stats_.admitted++;
    lastOutcome_.applied = true;
    lastOutcome_.lease = id;

    if (e.lifetime > 0 &&
        !post(engine::fleetDepart(e.at + e.lifetime, e.tenant))) {
        // Queue at its bound: the tenant is admitted but will not
        // auto-depart; the caller sees why in the outcome.
        lastOutcome_.detail =
            "admitted, but the departure could not be scheduled "
            "(pending queue is full)";
    }
}

void
FleetEngine::handleFleetDepart(const Event &e)
{
    auto name = byName_.find(e.tenant);
    if (name == byName_.end()) {
        stats_.unmatchedDeparts++;
        lastOutcome_.detail =
            "no live lease named '" + e.tenant + "'";
        return;
    }
    auto it = leases_.find(name->second);
    SHARCH_ASSERT(it != leases_.end(),
                  "byName_ points at a missing lease");
    lastOutcome_.applied = true;
    lastOutcome_.lease = it->first;
    fleet_.release(it->second.chip, it->second.local);
    dropLease(it);
    stats_.departures++;
}

void
FleetEngine::dropLease(
    std::map<std::uint64_t, FleetLease>::iterator it)
{
    const FleetLease &lease = it->second;
    if (lease.hasCustomer) {
        fleet_.chip(lease.chip).market.deactivateCustomer(
            lease.customer);
        dirty_.insert(lease.chip);
    }
    byName_.erase(lease.tenant);
    byLocal_.erase(std::make_pair(lease.chip, lease.local));
    leases_.erase(it);
}

ChurnSample
FleetEngine::sampleNow() const
{
    ChurnSample s;
    s.at = now();
    s.live = leases_.size();
    s.leasedSlices = leasedSlices();
    s.leasedBanks = leasedBanks();
    s.rejected = stats_.rejected;
    s.evictions = stats_.evictions;
    s.materialized = fleet_.materializedChips();
    // Each chip's occupancy is the record refreshChip() keeps, so a
    // sample reads no fabric; ascending chip id fixes the sum order.
    std::uint64_t chips = 0;
    double frag = 0.0;
    for (ChipId id = 0; id < fleet_.chipCount(); ++id) {
        const Chip *c = fleet_.peek(id);
        if (!c)
            continue;
        const Market &m = c->market.prices();
        const double slices = static_cast<double>(c->load.usedSlices);
        const double banks = static_cast<double>(c->load.usedBanks);
        s.revenue += m.slicePrice * slices + m.bankPrice * banks;
        frag += c->load.fragmentation;
        chips++;
    }
    if (chips > 0)
        s.fragmentation = frag / static_cast<double>(chips);
    return s;
}

void
FleetEngine::handleEpochAuction()
{
    // Only chips whose customer book changed re-run tatonnement;
    // everything else keeps its clearing prices.  Ascending chip id
    // keeps the pass deterministic.
    for (ChipId id : dirty_) {
        Chip &c = fleet_.chip(id);
        const std::vector<SpotRound> rounds =
            c.market.runToClearing(kClearingTolerance,
                                   kChipEpochRounds);
        stats_.auctionRounds += rounds.size();
    }
    dirty_.clear();
    stats_.epochs++;
    samples_.push_back(sampleNow());
    lastOutcome_.applied = true;

    // In stream mode the epoch sustains itself while any work is
    // still queued; the chain (and so run()) halts once the horizon
    // has fully drained.
    if (streamEnd_ != 0 && pendingEvents() > 0)
        post(engine::epochAuction(now() + cfg_.epochPeriod));
}

void
FleetEngine::handleFault(const Event &e)
{
    if (e.chip < 0) {
        lastOutcome_.detail = "fault event without a chip target; "
                              "this is a fleet engine";
        return;
    }
    const ChipId chip = static_cast<ChipId>(e.chip);
    if (chip >= fleet_.chipCount()) {
        lastOutcome_.detail =
            "chip " + std::to_string(chip) +
            " exceeds the fleet size (" +
            std::to_string(fleet_.chipCount()) + " chips)";
        return;
    }
    if (fleet_.isFaulty(chip, e.fault, e.tile)) {
        lastOutcome_.detail = "tile already faulty";
        return;
    }
    const std::vector<DegradeAction> acts =
        fleet_.markFaulty(chip, e.fault, e.tile);
    stats_.faults++;
    lastOutcome_.applied = true;
    lastOutcome_.actions = acts;
    degradeBookkeeping(chip, acts);

    // Capacity leaves the chip's market, as in the single-chip
    // engine.
    Chip &c = fleet_.chip(chip);
    const double slicesLost =
        e.fault == fault::FaultKind::Slice ? 1.0 : 0.0;
    const double banksLost =
        e.fault == fault::FaultKind::Bank ? 1.0 : 0.0;
    if (slicesLost == 0.0 && banksLost == 0.0)
        return; // link faults break contiguity, not capacity
    if (c.market.sliceCapacity() - slicesLost <= 0.0 ||
        c.market.bankCapacity() - banksLost <= 0.0) {
        return; // a market needs something to sell
    }
    c.market.reduceCapacity(slicesLost, banksLost);
    dirty_.insert(chip);
}

void
FleetEngine::degradeBookkeeping(
    ChipId chip, const std::vector<DegradeAction> &acts)
{
    for (const DegradeAction &act : acts) {
        stats_.reconfigCycles += act.cost;
        auto local = byLocal_.find(std::make_pair(chip, act.id));
        if (local == byLocal_.end())
            continue;
        auto it = leases_.find(local->second);
        SHARCH_ASSERT(it != leases_.end(),
                      "byLocal_ points at a missing lease");
        if (act.kind != DegradeKind::Evicted) {
            const FabricAllocation *fa =
                fleet_.chip(chip).fabric.find(act.id);
            if (fa) {
                it->second.slices = fa->slices.count;
                it->second.banks =
                    static_cast<unsigned>(fa->banks.size());
            }
            continue;
        }

        // Evicted from its chip.  The fleet-level second chance: try
        // the whole index for another home of the same shape before
        // giving the tenant up.
        FleetLease lease = it->second;
        dropLease(it);
        const std::optional<Placement> rehome =
            fleet_.place(lease.slices, lease.banks);
        if (!rehome) {
            stats_.evictions++;
            continue;
        }
        Chip &dest = fleet_.chip(rehome->chip);
        lease.chip = rehome->chip;
        lease.local = rehome->local;
        const FabricAllocation *fa =
            dest.fabric.find(rehome->local);
        lease.slices = fa->slices.count;
        lease.banks = static_cast<unsigned>(fa->banks.size());
        if (lease.hasCustomer) {
            // The customer book is per-chip: re-bid on the new one.
            const SpotCustomer cust = fleet_.chip(chip).market
                                          .customer(lease.customer);
            SpotCustomer moved;
            moved.name = cust.name;
            moved.benchmark = cust.benchmark;
            moved.utility = cust.utility;
            moved.budget = cust.budget;
            lease.customer = dest.market.addCustomer(
                std::move(moved));
            dirty_.insert(rehome->chip);
        }
        byName_.emplace(lease.tenant, lease.id);
        byLocal_.emplace(
            std::make_pair(lease.chip, lease.local), lease.id);
        const std::uint64_t id = lease.id;
        leases_.emplace(id, std::move(lease));
        replaced_++;
    }
}

void
FleetEngine::handleHeal(const Event &e)
{
    if (e.chip < 0) {
        lastOutcome_.detail = "heal event without a chip target; "
                              "this is a fleet engine";
        return;
    }
    const ChipId chip = static_cast<ChipId>(e.chip);
    if (chip >= fleet_.chipCount()) {
        lastOutcome_.detail =
            "chip " + std::to_string(chip) +
            " exceeds the fleet size (" +
            std::to_string(fleet_.chipCount()) + " chips)";
        return;
    }
    if (!fleet_.heal(chip, e.fault, e.tile)) {
        lastOutcome_.detail = "tile was not faulty";
        return;
    }
    stats_.heals++;
    lastOutcome_.applied = true;
    // Credit only capacity a fault charged.  handleFault() charges
    // nothing when the charge would empty the market, so the market
    // is owed a unit exactly while it sells less than the healthy
    // count.
    Chip &c = fleet_.chip(chip);
    const FabricManager &fm = c.fabric;
    if (e.fault == fault::FaultKind::Slice &&
        c.market.sliceCapacity() <
            static_cast<double>(fm.totalSlices() - fm.faultySlices()))
        c.market.restoreCapacity(1.0, 0.0);
    else if (e.fault == fault::FaultKind::Bank &&
             c.market.bankCapacity() <
                 static_cast<double>(fm.totalBanks() -
                                     fm.faultyBanks()))
        c.market.restoreCapacity(0.0, 1.0);
}

void
FleetEngine::handleReshape(const Event &e)
{
    auto it = leases_.find(e.lease);
    if (it == leases_.end()) {
        lastOutcome_.detail =
            "no lease with id " + std::to_string(e.lease);
        return;
    }
    lastOutcome_.lease = e.lease;
    FleetLease &lease = it->second;
    Chip &c = fleet_.chip(lease.chip);
    const std::optional<Cycles> cost =
        c.fabric.reshape(lease.local, e.slices, e.banks);
    if (!cost) {
        lastOutcome_.detail = "fabric cannot satisfy the new shape";
        return;
    }
    fleet_.refreshChip(lease.chip);
    const FabricAllocation *fa = c.fabric.find(lease.local);
    lease.slices = fa->slices.count;
    lease.banks = static_cast<unsigned>(fa->banks.size());
    stats_.reconfigCycles += *cost;
    lastOutcome_.applied = true;
    lastOutcome_.cost = *cost;
}

// --- Serve-protocol adaptation -----------------------------------

engine::Event
FleetEngine::arriveEvent(Cycles at, std::string tenant,
                         std::string benchmark, UtilityKind utility,
                         double budget, unsigned slices,
                         unsigned banks, Cycles lifetime) const
{
    return engine::fleetArrive(at, std::move(tenant),
                               std::move(benchmark), utility, budget,
                               slices, banks, lifetime);
}

engine::Event
FleetEngine::departEvent(Cycles at, std::string tenant) const
{
    return engine::fleetDepart(at, std::move(tenant));
}

engine::Event
FleetEngine::priceEvent(Cycles at) const
{
    return engine::epochAuction(at);
}

void
FleetEngine::addPriceReply(json::Value *reply) const
{
    const ChurnSample s = sampleNow();
    reply->add("revenue", json::Value::number(s.revenue));
    reply->add("materialized",
               json::Value::number(std::uint64_t{s.materialized}));
    reply->add("dirty_chips",
               json::Value::number(
                   std::uint64_t{dirty_.size()}));
}

void
FleetEngine::addStatsReply(json::Value *reply) const
{
    const engine::EngineStats &s = stats();
    reply->add("leases",
               json::Value::number(std::uint64_t{leases_.size()}));
    reply->add("chips",
               json::Value::number(
                   std::uint64_t{fleet_.chipCount()}));
    reply->add("materialized",
               json::Value::number(
                   std::uint64_t{fleet_.materializedChips()}));
    reply->add("processed", json::Value::number(s.processed));
    reply->add("arrivals", json::Value::number(s.arrivals));
    reply->add("admitted", json::Value::number(s.admitted));
    reply->add("rejected", json::Value::number(s.rejected));
    reply->add("departures", json::Value::number(s.departures));
    reply->add("faults", json::Value::number(s.faults));
    reply->add("heals", json::Value::number(s.heals));
    reply->add("evictions", json::Value::number(s.evictions));
    reply->add("replaced", json::Value::number(replaced_));
    reply->add("epochs", json::Value::number(s.epochs));
    reply->add("checkpoints", json::Value::number(s.checkpoints));
    reply->add("leased_slices",
               json::Value::number(leasedSlices()));
    reply->add("leased_banks", json::Value::number(leasedBanks()));
}

} // namespace sharch::fleet
