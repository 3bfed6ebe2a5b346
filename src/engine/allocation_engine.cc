#include "engine/allocation_engine.hh"

#include <algorithm>
#include <utility>

#include "engine/state_json.hh"
#include "trace/profile.hh"

namespace sharch::engine {

AllocationEngine::AllocationEngine(UtilityOptimizer &opt,
                                   const EngineConfig &cfg)
    : EngineBase(kDefaultMaxPending), opt_(&opt), cfg_(cfg),
      fabric_(cfg.fabricWidth, cfg.fabricHeight),
      market_(opt, fabric_.totalSlices(), fabric_.totalBanks())
{
}

void
AllocationEngine::postFaultSchedule(
    const std::vector<fault::FaultEvent> &fs)
{
    for (const fault::FaultEvent &f : fs) {
        post(f.heal ? healFault(f.at, f.kind, f.tile)
                    : faultStrike(f.at, f.kind, f.tile));
    }
}

void
AllocationEngine::dispatchEvent(const Event &e)
{
    switch (e.kind) {
      case EventKind::TenantArrive: handleArrive(e); break;
      case EventKind::TenantDepart: handleDepart(e); break;
      case EventKind::Reshape: handleReshape(e); break;
      case EventKind::FaultStrike: handleFault(e); break;
      case EventKind::Heal: handleHeal(e); break;
      case EventKind::AuctionEpoch: handleEpoch(); break;
      case EventKind::Checkpoint:
        break; // EngineBase consumes Checkpoints before this point
      case EventKind::FleetArrive:
      case EventKind::FleetDepart:
      case EventKind::EpochAuction:
        lastOutcome_.detail =
            std::string(eventKindName(e.kind)) +
            " is a fleet event; this is a single-chip engine";
        break;
    }
}

void
AllocationEngine::handleArrive(const Event &e)
{
    stats_.arrivals++;
    if (e.budget <= 0.0 && e.slices == 0) {
        lastOutcome_.detail = "tenant '" + e.tenant +
                              "' has neither budget nor slices";
        return;
    }

    CustomerId cid = 0;
    bool hasCustomer = false;
    if (e.budget > 0.0) {
        // The optimizer resolves utility from the builtin profile
        // table; an unknown name would abort mid-auction, so reject
        // the bidder at the door instead.
        if (!hasProfile(e.benchmark)) {
            stats_.rejected++;
            lastOutcome_.detail =
                "unknown benchmark '" + e.benchmark +
                "' (see ssim --list for valid profiles)";
            return;
        }
        SpotCustomer c;
        c.name = e.tenant;
        c.benchmark = e.benchmark;
        c.utility = e.utility;
        c.budget = e.budget;
        cid = market_.addCustomer(std::move(c));
        hasCustomer = true;
    }

    if (e.slices == 0) {
        // Market-only tenant: bids in auctions, claims no fabric.
        lastOutcome_.applied = true;
        lastOutcome_.detail = "market-only";
        return;
    }

    std::optional<AllocationId> id =
        fabric_.allocate(e.slices, e.banks);
    if (!id) {
        stats_.rejected++;
        // An unplaceable tenant does not linger in the auction.
        if (hasCustomer)
            market_.deactivateCustomer(cid);
        lastOutcome_.detail =
            "no room for " + std::to_string(e.slices) +
            " Slices + " + std::to_string(e.banks) + " banks";
        return;
    }

    const FabricAllocation *fa = fabric_.find(*id);
    Lease lease;
    lease.id = *id;
    lease.tenant = e.tenant;
    lease.customer = cid;
    lease.hasCustomer = hasCustomer;
    lease.slices = fa->slices.count;
    lease.banks = static_cast<unsigned>(fa->banks.size());
    lease.arrivedAt = now();
    leases_.emplace(*id, std::move(lease));
    stats_.admitted++;
    lastOutcome_.applied = true;
    lastOutcome_.lease = *id;
}

void
AllocationEngine::handleDepart(const Event &e)
{
    // Lowest-id lease first: deterministic when a tenant name is
    // (unusually) reused.
    for (auto it = leases_.begin(); it != leases_.end(); ++it) {
        if (it->second.tenant != e.tenant)
            continue;
        fabric_.release(it->first);
        if (it->second.hasCustomer)
            market_.deactivateCustomer(it->second.customer);
        lastOutcome_.applied = true;
        lastOutcome_.lease = it->first;
        leases_.erase(it);
        stats_.departures++;
        return;
    }
    // Market-only tenants have no lease; retire the bidder directly.
    const std::vector<SpotCustomer> &book = market_.customers();
    for (std::size_t i = 0; i < book.size(); ++i) {
        if (!book[i].active || book[i].name != e.tenant)
            continue;
        market_.deactivateCustomer(static_cast<CustomerId>(i));
        lastOutcome_.applied = true;
        stats_.departures++;
        return;
    }
    stats_.unmatchedDeparts++;
    lastOutcome_.detail =
        "no live lease or active customer named '" + e.tenant + "'";
}

void
AllocationEngine::handleFault(const Event &e)
{
    if (fabric_.isFaulty(e.fault, e.tile)) {
        lastOutcome_.detail = "tile already faulty";
        return;
    }
    std::vector<DegradeAction> acts =
        fabric_.markFaulty(e.fault, e.tile);
    stats_.faults++;
    lastOutcome_.applied = true;
    lastOutcome_.actions = acts;
    degradeBookkeeping(acts);

    double slicesLost = e.fault == fault::FaultKind::Slice ? 1.0 : 0.0;
    double banksLost = e.fault == fault::FaultKind::Bank ? 1.0 : 0.0;
    if (slicesLost == 0.0 && banksLost == 0.0)
        return; // link faults break contiguity, not capacity
    if (market_.sliceCapacity() - slicesLost <= 0.0 ||
        market_.bankCapacity() - banksLost <= 0.0) {
        // A market needs something to sell; leave prices be.
        return;
    }
    market_.reduceCapacity(slicesLost, banksLost);
}

void
AllocationEngine::handleHeal(const Event &e)
{
    if (!fabric_.heal(e.fault, e.tile)) {
        lastOutcome_.detail = "tile was not faulty";
        return;
    }
    stats_.heals++;
    lastOutcome_.applied = true;
    // Credit only capacity a fault charged.  handleFault() charges
    // nothing when the charge would empty the market, so the market
    // is owed a unit exactly while it sells less than the healthy
    // count.
    if (e.fault == fault::FaultKind::Slice &&
        market_.sliceCapacity() <
            static_cast<double>(fabric_.totalSlices() -
                                fabric_.faultySlices()))
        market_.restoreCapacity(1.0, 0.0);
    else if (e.fault == fault::FaultKind::Bank &&
             market_.bankCapacity() <
                 static_cast<double>(fabric_.totalBanks() -
                                     fabric_.faultyBanks()))
        market_.restoreCapacity(0.0, 1.0);
}

void
AllocationEngine::handleEpoch()
{
    const std::vector<SpotRound> rounds = market_.runToClearing();
    stats_.epochs++;
    stats_.auctionRounds += rounds.size();
    lastOutcome_.applied = true;
}

void
AllocationEngine::degradeBookkeeping(
    const std::vector<DegradeAction> &acts)
{
    for (const DegradeAction &act : acts) {
        stats_.reconfigCycles += act.cost;
        auto it = leases_.find(act.id);
        if (it == leases_.end())
            continue; // engine-external allocation (none in practice)
        if (act.kind == DegradeKind::Evicted) {
            if (it->second.hasCustomer)
                market_.deactivateCustomer(it->second.customer);
            leases_.erase(it);
            stats_.evictions++;
            continue;
        }
        const FabricAllocation *fa = fabric_.find(act.id);
        if (fa) {
            it->second.slices = fa->slices.count;
            it->second.banks =
                static_cast<unsigned>(fa->banks.size());
        }
    }
}

void
AllocationEngine::handleReshape(const Event &e)
{
    auto it = leases_.find(e.lease);
    if (it == leases_.end()) {
        lastOutcome_.detail =
            "no lease with id " + std::to_string(e.lease);
        return;
    }
    lastOutcome_.lease = e.lease;
    std::optional<Cycles> cost =
        fabric_.reshape(e.lease, e.slices, e.banks);
    if (!cost) {
        lastOutcome_.detail = "fabric cannot satisfy the new shape";
        return;
    }
    const FabricAllocation *fa = fabric_.find(e.lease);
    it->second.slices = fa->slices.count;
    it->second.banks = static_cast<unsigned>(fa->banks.size());
    stats_.reconfigCycles += *cost;
    lastOutcome_.applied = true;
    lastOutcome_.cost = *cost;
}

std::string
AllocationEngine::saveState() const
{
    json::Value root = json::Value::object();
    root.add("schema", json::Value::string(kStateSchema));
    root.add("clock", json::Value::number(std::uint64_t{now()}));
    root.add("next_seq", json::Value::number(nextSeq()));
    root.add("stats", statsToJson());
    root.add("fabric", fabricToJson(fabric_.snapshot()));
    root.add("market", marketStateToJson(market_.snapshot()));

    json::Value &leases = root.add("leases", json::Value::array());
    for (const auto &[id, lease] : leases_) {
        json::Value &v = leases.push(json::Value::object());
        v.add("id", json::Value::number(id));
        v.add("tenant", json::Value::string(lease.tenant));
        v.add("customer",
              lease.hasCustomer
                  ? json::Value::number(
                        std::uint64_t{lease.customer})
                  : json::Value::null());
        v.add("slices", json::Value::number(lease.slices));
        v.add("banks", json::Value::number(lease.banks));
        v.add("arrived_at",
              json::Value::number(std::uint64_t{lease.arrivedAt}));
    }

    root.add("queue", queueToJson());
    return root.dump();
}

bool
AllocationEngine::restoreState(const std::string &text,
                               std::string *error)
{
    json::Value root;
    std::string perr;
    if (!json::parse(text, &root, &perr))
        return fail(error, "state document is not valid JSON (" +
                               perr + ")");
    if (!root.isObject())
        return fail(error, "state document must be a JSON object");
    const json::Value *schema = root.get("schema");
    if (!schema || !schema->isString())
        return fail(error, "schema tag missing: expected \"" +
                               std::string(kStateSchema) + "\"");
    if (schema->text != kStateSchema)
        return fail(error, "unsupported schema '" + schema->text +
                               "' (this build reads " +
                               std::string(kStateSchema) + ")");
    // Fleet documents share the schema tag but carry a kind marker;
    // loading one into a single-chip engine must fail loudly, not
    // half-parse.
    if (const json::Value *kind = root.get("kind")) {
        if (!kind->isString() || kind->text != "chip")
            return fail(error,
                        "state document is not a single-chip "
                        "engine state (kind marker present)");
    }

    std::uint64_t clock = 0, nextSeq = 0;
    if (!fieldU64(root, "clock", &clock, error) ||
        !fieldU64(root, "next_seq", &nextSeq, error)) {
        return false;
    }

    EngineStats st;
    if (!statsFromJson(root, &st, error))
        return false;

    // --- Fabric --------------------------------------------------
    const json::Value *fab = root.get("fabric");
    if (!fab || !fab->isObject())
        return fail(error, "fabric missing or not an object");
    FabricSnapshot fs;
    if (!fabricFromJson(*fab, "fabric", &fs, error))
        return false;

    // Side-build: validate every claim without touching fabric_.
    FabricManager fabric = fabric_;
    std::string ferr;
    if (!fabric.restore(fs, &ferr))
        return fail(error, "fabric: " + ferr);

    // --- Market --------------------------------------------------
    const json::Value *mkt = root.get("market");
    if (!mkt || !mkt->isObject())
        return fail(error, "market missing or not an object");
    SpotMarketSnapshot ms;
    if (!marketStateFromJson(*mkt, "market", &ms, error))
        return false;

    // --- Leases --------------------------------------------------
    const json::Value *leases = root.get("leases");
    if (!leases || !leases->isArray())
        return fail(error, "leases missing or not an array");
    std::map<std::uint64_t, Lease> book2;
    for (std::size_t i = 0; i < leases->items.size(); ++i) {
        const json::Value &l = leases->items[i];
        const std::string where =
            "leases[" + std::to_string(i) + "]: ";
        if (!l.isObject())
            return fail(error, where + "not an object");
        Lease lease;
        std::uint64_t slices = 0, banks = 0;
        std::string sub;
        if (!fieldU64(l, "id", &lease.id, &sub) ||
            !fieldU64(l, "slices", &slices, &sub) ||
            !fieldU64(l, "banks", &banks, &sub) ||
            !fieldU64(l, "arrived_at", &lease.arrivedAt, &sub)) {
            return fail(error, where + sub);
        }
        const json::Value *tenant = l.get("tenant");
        if (!tenant || !tenant->isString())
            return fail(error, where + "tenant missing");
        lease.tenant = tenant->text;
        lease.slices = static_cast<unsigned>(slices);
        lease.banks = static_cast<unsigned>(banks);
        const json::Value *customer = l.get("customer");
        if (!customer)
            return fail(error, where + "customer missing (use "
                                       "null for fabric-only)");
        if (!customer->isNull()) {
            std::uint64_t cid = 0;
            if (!customer->asU64(&cid))
                return fail(error,
                            where + "customer is not an id");
            if (cid >= ms.customers.size())
                return fail(error,
                            where + "customer " +
                                std::to_string(cid) +
                                " not in the market book (" +
                                std::to_string(ms.customers.size()) +
                                " customers)");
            lease.customer = static_cast<CustomerId>(cid);
            lease.hasCustomer = true;
        }
        if (!fabric.find(lease.id))
            return fail(error,
                        where + "no fabric allocation with id " +
                            std::to_string(lease.id));
        if (book2.count(lease.id))
            return fail(error, where + "duplicate lease id " +
                                   std::to_string(lease.id));
        book2.emplace(lease.id, std::move(lease));
    }

    // --- Queue ---------------------------------------------------
    std::vector<Queued> pending;
    if (!queueFromJson(root.get("queue"), nextSeq, &pending, error))
        return false;

    // Everything validated: commit atomically.
    fabric_ = std::move(fabric);
    SpotMarketSnapshot msCopy = std::move(ms);
    market_.restore(msCopy);
    leases_ = std::move(book2);
    adoptRestoredSpine(std::move(pending), clock, nextSeq, st);
    return true;
}

bool
AllocationEngine::checkInvariants(std::string *error) const
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    // The layers audit themselves first.
    if (!fabric_.checkConsistency(error))
        return false;
    if (!market_.checkConsistency(error))
        return false;

    // Leases <-> fabric allocations must be a bijection with
    // matching shapes, and every customer handle must resolve.
    const std::vector<FabricAllocation> allocs =
        fabric_.allocations();
    if (allocs.size() != leases_.size())
        return fail("lease book has " +
                    std::to_string(leases_.size()) +
                    " entries but the fabric has " +
                    std::to_string(allocs.size()) + " allocations");
    std::uint64_t leasedSlices = 0, leasedBanks = 0;
    for (const FabricAllocation &fa : allocs) {
        auto it = leases_.find(fa.id);
        if (it == leases_.end())
            return fail("fabric allocation " +
                        std::to_string(fa.id) + " has no lease");
        const Lease &lease = it->second;
        if (lease.slices != fa.slices.count ||
            lease.banks != static_cast<unsigned>(fa.banks.size())) {
            return fail(
                "lease " + std::to_string(fa.id) + " ('" +
                lease.tenant + "') claims " +
                std::to_string(lease.slices) + " Slices + " +
                std::to_string(lease.banks) +
                " banks but the fabric allocation holds " +
                std::to_string(fa.slices.count) + " + " +
                std::to_string(fa.banks.size()));
        }
        leasedSlices += fa.slices.count;
        leasedBanks += fa.banks.size();
        if (lease.hasCustomer) {
            if (lease.customer >= market_.customers().size())
                return fail("lease " + std::to_string(fa.id) +
                            " points at customer " +
                            std::to_string(lease.customer) +
                            " but the book has only " +
                            std::to_string(
                                market_.customers().size()) +
                            " entries");
            if (!market_.customer(lease.customer).active)
                return fail("lease " + std::to_string(fa.id) +
                            " ('" + lease.tenant +
                            "') references departed customer " +
                            std::to_string(lease.customer));
        }
        if (lease.arrivedAt > now())
            return fail("lease " + std::to_string(fa.id) +
                        " arrived at cycle " +
                        std::to_string(lease.arrivedAt) +
                        ", after the clock (" +
                        std::to_string(now()) + ")");
    }

    // The occupancy arithmetic must close exactly.
    if (leasedSlices + fabric_.freeSlices() +
            fabric_.faultySlices() != fabric_.totalSlices()) {
        return fail("Slice occupancy does not close: " +
                    std::to_string(leasedSlices) + " leased + " +
                    std::to_string(fabric_.freeSlices()) +
                    " free + " +
                    std::to_string(fabric_.faultySlices()) +
                    " faulty != " +
                    std::to_string(fabric_.totalSlices()));
    }
    if (leasedBanks + fabric_.freeBanks() + fabric_.faultyBanks() !=
        fabric_.totalBanks()) {
        return fail("bank occupancy does not close: " +
                    std::to_string(leasedBanks) + " leased + " +
                    std::to_string(fabric_.freeBanks()) +
                    " free + " +
                    std::to_string(fabric_.faultyBanks()) +
                    " faulty != " +
                    std::to_string(fabric_.totalBanks()));
    }

    // The market cannot sell more than the chip has.
    if (market_.sliceCapacity() >
            static_cast<double>(fabric_.totalSlices()) ||
        market_.bankCapacity() >
            static_cast<double>(fabric_.totalBanks())) {
        return fail("market capacity exceeds the fabric's totals");
    }

    // Counter sanity: live leases all came through admission.
    if (leases_.size() > stats_.admitted)
        return fail(std::to_string(leases_.size()) +
                    " live leases but only " +
                    std::to_string(stats_.admitted) +
                    " admissions recorded");
    return true;
}

void
AllocationEngine::addPriceReply(json::Value *reply) const
{
    const Market &m = market_.prices();
    reply->add("slice_price", json::Value::number(m.slicePrice));
    reply->add("bank_price", json::Value::number(m.bankPrice));
    reply->add("round",
               json::Value::number(unsigned{market_.round()}));
}

void
AllocationEngine::addStatsReply(json::Value *reply) const
{
    const EngineStats &s = stats();
    reply->add("leases",
               json::Value::number(std::uint64_t{leases_.size()}));
    reply->add("active_customers",
               json::Value::number(
                   unsigned{market_.activeCustomers()}));
    reply->add("processed", json::Value::number(s.processed));
    reply->add("arrivals", json::Value::number(s.arrivals));
    reply->add("admitted", json::Value::number(s.admitted));
    reply->add("rejected", json::Value::number(s.rejected));
    reply->add("departures", json::Value::number(s.departures));
    reply->add("faults", json::Value::number(s.faults));
    reply->add("heals", json::Value::number(s.heals));
    reply->add("evictions", json::Value::number(s.evictions));
    reply->add("epochs", json::Value::number(s.epochs));
    reply->add("checkpoints", json::Value::number(s.checkpoints));
    reply->add("free_slices",
               json::Value::number(
                   unsigned{fabric_.freeSlices()}));
    reply->add("free_banks",
               json::Value::number(
                   unsigned{fabric_.freeBanks()}));
}

study::Report
AllocationEngine::finalReport() const
{
    study::Report r;
    r.id = "engine";
    r.title = "Allocation engine final state";
    r.addMeta("schema", kStateSchema);
    r.addMeta("fabric", std::to_string(fabric_.width()) + "x" +
                            std::to_string(fabric_.height()));
    r.addMeta("clock",
              study::Value(static_cast<unsigned long long>(now())));

    study::Table &counters =
        r.addTable("engine_counters", "Event counters");
    counters.col("counter", study::Value::Kind::Text)
        .col("value", study::Value::Kind::Integer);
    auto count = [&](const char *name, std::uint64_t v) {
        counters.addRow(
            {name, study::Value(static_cast<unsigned long long>(v))});
    };
    count("processed", stats_.processed);
    count("arrivals", stats_.arrivals);
    count("admitted", stats_.admitted);
    count("rejected", stats_.rejected);
    count("departures", stats_.departures);
    count("unmatched_departs", stats_.unmatchedDeparts);
    count("faults", stats_.faults);
    count("heals", stats_.heals);
    count("evictions", stats_.evictions);
    count("epochs", stats_.epochs);
    count("auction_rounds", stats_.auctionRounds);
    count("checkpoints", stats_.checkpoints);
    count("reconfig_cycles", stats_.reconfigCycles);

    study::Table &mkt =
        r.addTable("engine_market", "Spot market state");
    mkt.col("metric", study::Value::Kind::Text)
        .col("value", study::Value::Kind::Real, 4);
    mkt.addRow({"slice_price", market_.prices().slicePrice});
    mkt.addRow({"bank_price", market_.prices().bankPrice});
    mkt.addRow({"slice_capacity", market_.sliceCapacity()});
    mkt.addRow({"bank_capacity", market_.bankCapacity()});
    mkt.addRow({"active_customers",
                static_cast<double>(market_.activeCustomers())});
    mkt.addRow({"refunds_paid", stats_.refundsPaid});

    study::Table &fab =
        r.addTable("engine_fabric", "Fabric occupancy");
    fab.col("metric", study::Value::Kind::Text)
        .col("value", study::Value::Kind::Real, 4);
    fab.addRow({"slice_utilization", fabric_.sliceUtilization()});
    fab.addRow({"bank_utilization", fabric_.bankUtilization()});
    fab.addRow({"fragmentation", fabric_.fragmentation()});
    fab.addRow({"free_slices",
                static_cast<double>(fabric_.freeSlices())});
    fab.addRow({"free_banks",
                static_cast<double>(fabric_.freeBanks())});
    fab.addRow({"faulty_slices",
                static_cast<double>(fabric_.faultySlices())});
    fab.addRow({"faulty_banks",
                static_cast<double>(fabric_.faultyBanks())});

    study::Table &leases =
        r.addTable("engine_leases", "Live leases");
    leases.col("id", study::Value::Kind::Integer)
        .col("tenant", study::Value::Kind::Text)
        .col("slices", study::Value::Kind::Integer)
        .col("banks", study::Value::Kind::Integer)
        .col("arrived_at", study::Value::Kind::Integer);
    for (const auto &[id, lease] : leases_) {
        leases.addRow(
            {study::Value(static_cast<unsigned long long>(id)),
             lease.tenant, lease.slices, lease.banks,
             study::Value(static_cast<unsigned long long>(
                 lease.arrivedAt))});
    }
    return r;
}

} // namespace sharch::engine
