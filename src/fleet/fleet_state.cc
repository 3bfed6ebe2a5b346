/**
 * @file
 * FleetEngine's sharch-state-v1 document, invariant audit, and final
 * report.
 *
 * The document shares the single-chip engine's schema tag, spine
 * sections (stats, queue -- serialized by EngineBase so the byte
 * formats stay in lockstep), and fabric/market encodings
 * (engine/state_json.hh), but carries "kind":"fleet" and one
 * fabric+market section per *materialized* chip; virgin chips are
 * pure configuration and serialize to nothing.  AllocationEngine
 * rejects fleet documents via the kind marker, and vice versa.
 */

#include <cmath>

#include "common/logging.hh"
#include "engine/state_json.hh"
#include "fleet/fleet_engine.hh"

namespace sharch::fleet {

using engine::fail;
using engine::fieldDouble;
using engine::fieldU64;

std::string
FleetEngine::saveState() const
{
    json::Value root = json::Value::object();
    root.add("schema", json::Value::string(engine::kStateSchema));
    root.add("kind", json::Value::string("fleet"));
    root.add("clock", json::Value::number(std::uint64_t{now()}));
    root.add("next_seq", json::Value::number(nextSeq()));
    root.add("stats", statsToJson());
    root.add("next_lease", json::Value::number(nextLease_));
    root.add("replaced", json::Value::number(replaced_));

    json::Value &stream = root.add("stream", json::Value::object());
    stream.add("prev", json::Value::number(streamPrev_));
    stream.add("end", json::Value::number(streamEnd_));

    json::Value &probe = root.add("probe", json::Value::object());
    probe.add("lookups",
              json::Value::number(fleet_.index().lookups()));
    probe.add("tiers",
              json::Value::number(fleet_.index().tierProbes()));

    json::Value &chips = root.add("chips", json::Value::array());
    for (ChipId id = 0; id < fleet_.chipCount(); ++id) {
        const Chip *c = fleet_.peek(id);
        if (!c)
            continue;
        json::Value &v = chips.push(json::Value::object());
        v.add("id", json::Value::number(std::uint64_t{id}));
        v.add("fabric",
              engine::fabricToJson(c->fabric.snapshot()));
        v.add("market",
              engine::marketStateToJson(c->market.snapshot()));
    }

    json::Value &leases = root.add("leases", json::Value::array());
    for (const auto &[id, lease] : leases_) {
        json::Value &v = leases.push(json::Value::object());
        v.add("id", json::Value::number(id));
        v.add("tenant", json::Value::string(lease.tenant));
        v.add("chip",
              json::Value::number(std::uint64_t{lease.chip}));
        v.add("local", json::Value::number(lease.local));
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

    json::Value &dirty = root.add("dirty", json::Value::array());
    for (ChipId id : dirty_)
        dirty.push(json::Value::number(std::uint64_t{id}));

    json::Value &samples = root.add("samples", json::Value::array());
    for (const ChurnSample &s : samples_) {
        json::Value &v = samples.push(json::Value::object());
        v.add("at", json::Value::number(std::uint64_t{s.at}));
        v.add("live", json::Value::number(s.live));
        v.add("leased_slices",
              json::Value::number(s.leasedSlices));
        v.add("leased_banks", json::Value::number(s.leasedBanks));
        v.add("revenue", json::Value::number(s.revenue));
        v.add("fragmentation",
              json::Value::number(s.fragmentation));
        v.add("rejected", json::Value::number(s.rejected));
        v.add("evictions", json::Value::number(s.evictions));
        v.add("materialized", json::Value::number(s.materialized));
    }

    root.add("queue", queueToJson());
    return root.dump();
}

bool
FleetEngine::restoreState(const std::string &text,
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
        return fail(error,
                    "schema tag missing: expected \"" +
                        std::string(engine::kStateSchema) + "\"");
    if (schema->text != engine::kStateSchema)
        return fail(error, "unsupported schema '" + schema->text +
                               "' (this build reads " +
                               std::string(engine::kStateSchema) +
                               ")");
    const json::Value *kind = root.get("kind");
    if (!kind || !kind->isString() || kind->text != "fleet")
        return fail(error, "state document is not a fleet engine "
                           "state (kind marker missing or not "
                           "\"fleet\")");

    std::uint64_t clock = 0, nextSeq = 0, nextLease = 0,
                  replaced = 0;
    if (!fieldU64(root, "clock", &clock, error) ||
        !fieldU64(root, "next_seq", &nextSeq, error) ||
        !fieldU64(root, "next_lease", &nextLease, error) ||
        !fieldU64(root, "replaced", &replaced, error)) {
        return false;
    }

    engine::EngineStats st;
    if (!statsFromJson(root, &st, error))
        return false;

    const json::Value *stream = root.get("stream");
    if (!stream || !stream->isObject())
        return fail(error, "stream missing or not an object");
    std::uint64_t streamPrev = 0, streamEnd = 0;
    std::string sub;
    if (!fieldU64(*stream, "prev", &streamPrev, &sub) ||
        !fieldU64(*stream, "end", &streamEnd, &sub)) {
        return fail(error, "stream." + sub);
    }

    const json::Value *probe = root.get("probe");
    if (!probe || !probe->isObject())
        return fail(error, "probe missing or not an object");
    std::uint64_t lookups = 0, tierProbes = 0;
    if (!fieldU64(*probe, "lookups", &lookups, &sub) ||
        !fieldU64(*probe, "tiers", &tierProbes, &sub)) {
        return fail(error, "probe." + sub);
    }

    // --- Chips (side-build: fleet_ untouched until commit) -------
    const json::Value *chips = root.get("chips");
    if (!chips || !chips->isArray())
        return fail(error, "chips missing or not an array");
    Fleet fleet(*opt_, cfg_.fleet);
    std::int64_t prevChip = -1;
    for (std::size_t i = 0; i < chips->items.size(); ++i) {
        const json::Value &cv = chips->items[i];
        const std::string where =
            "chips[" + std::to_string(i) + "]";
        if (!cv.isObject())
            return fail(error, where + ": not an object");
        std::uint64_t id = 0;
        if (!fieldU64(cv, "id", &id, &sub))
            return fail(error, where + ": " + sub);
        if (static_cast<std::int64_t>(id) <= prevChip)
            return fail(error,
                        where + ": chip ids must be strictly "
                                "ascending");
        prevChip = static_cast<std::int64_t>(id);
        const json::Value *fab = cv.get("fabric");
        if (!fab || !fab->isObject())
            return fail(error,
                        where + ": fabric missing or not an object");
        FabricSnapshot fs;
        if (!engine::fabricFromJson(*fab, where + ".fabric", &fs,
                                    error)) {
            return false;
        }
        const json::Value *mkt = cv.get("market");
        if (!mkt || !mkt->isObject())
            return fail(error,
                        where + ": market missing or not an object");
        SpotMarketSnapshot ms;
        if (!engine::marketStateFromJson(*mkt, where + ".market",
                                         &ms, error)) {
            return false;
        }
        std::string cerr;
        if (!fleet.restoreChip(static_cast<ChipId>(id), fs, ms,
                               &cerr)) {
            return fail(error, where + ": " + cerr);
        }
    }
    fleet.index().setProbeCounters(lookups, tierProbes);

    // --- Leases --------------------------------------------------
    const json::Value *leases = root.get("leases");
    if (!leases || !leases->isArray())
        return fail(error, "leases missing or not an array");
    std::map<std::uint64_t, FleetLease> book;
    std::map<std::string, std::uint64_t> byName;
    std::map<std::pair<ChipId, AllocationId>, std::uint64_t> byLocal;
    for (std::size_t i = 0; i < leases->items.size(); ++i) {
        const json::Value &l = leases->items[i];
        const std::string where =
            "leases[" + std::to_string(i) + "]: ";
        if (!l.isObject())
            return fail(error, where + "not an object");
        FleetLease lease;
        std::uint64_t chip = 0, slices = 0, banks = 0;
        if (!fieldU64(l, "id", &lease.id, &sub) ||
            !fieldU64(l, "chip", &chip, &sub) ||
            !fieldU64(l, "local", &lease.local, &sub) ||
            !fieldU64(l, "slices", &slices, &sub) ||
            !fieldU64(l, "banks", &banks, &sub) ||
            !fieldU64(l, "arrived_at", &lease.arrivedAt, &sub)) {
            return fail(error, where + sub);
        }
        const json::Value *tenant = l.get("tenant");
        if (!tenant || !tenant->isString())
            return fail(error, where + "tenant missing");
        lease.tenant = tenant->text;
        lease.chip = static_cast<ChipId>(chip);
        lease.slices = static_cast<unsigned>(slices);
        lease.banks = static_cast<unsigned>(banks);
        if (lease.id == 0 || lease.id >= nextLease)
            return fail(error,
                        where + "lease id " +
                            std::to_string(lease.id) +
                            " outside [1, next_lease)");
        const Chip *c = fleet.peek(lease.chip);
        if (!c)
            return fail(error, where + "chip " +
                                   std::to_string(chip) +
                                   " is not materialized");
        const FabricAllocation *fa = c->fabric.find(lease.local);
        if (!fa)
            return fail(error,
                        where + "no allocation " +
                            std::to_string(lease.local) +
                            " on chip " + std::to_string(chip));
        if (lease.slices != fa->slices.count ||
            lease.banks !=
                static_cast<unsigned>(fa->banks.size())) {
            return fail(error,
                        where + "shape does not match the chip's "
                                "allocation");
        }
        const json::Value *customer = l.get("customer");
        if (!customer)
            return fail(error, where + "customer missing (use "
                                       "null for budget-less)");
        if (!customer->isNull()) {
            std::uint64_t cid = 0;
            if (!customer->asU64(&cid))
                return fail(error,
                            where + "customer is not an id");
            if (cid >= c->market.customers().size())
                return fail(
                    error,
                    where + "customer " + std::to_string(cid) +
                        " not in chip " + std::to_string(chip) +
                        "'s market book");
            lease.customer = static_cast<CustomerId>(cid);
            lease.hasCustomer = true;
        }
        if (book.count(lease.id))
            return fail(error, where + "duplicate lease id " +
                                   std::to_string(lease.id));
        if (byName.count(lease.tenant))
            return fail(error, where + "duplicate tenant '" +
                                   lease.tenant + "'");
        if (byLocal.count({lease.chip, lease.local}))
            return fail(error,
                        where + "duplicate chip allocation");
        byName.emplace(lease.tenant, lease.id);
        byLocal.emplace(
            std::make_pair(lease.chip, lease.local), lease.id);
        const std::uint64_t id = lease.id;
        book.emplace(id, std::move(lease));
    }

    // --- Dirty set -----------------------------------------------
    const json::Value *dirty = root.get("dirty");
    if (!dirty || !dirty->isArray())
        return fail(error, "dirty missing or not an array");
    std::set<ChipId> dirtySet;
    for (std::size_t i = 0; i < dirty->items.size(); ++i) {
        std::uint64_t id = 0;
        if (!dirty->items[i].asU64(&id) ||
            !fleet.isMaterialized(static_cast<ChipId>(id))) {
            return fail(error,
                        "dirty[" + std::to_string(i) +
                            "]: not a materialized chip id");
        }
        dirtySet.insert(static_cast<ChipId>(id));
    }

    // --- Samples -------------------------------------------------
    const json::Value *samples = root.get("samples");
    if (!samples || !samples->isArray())
        return fail(error, "samples missing or not an array");
    std::vector<ChurnSample> series;
    for (std::size_t i = 0; i < samples->items.size(); ++i) {
        const json::Value &sv = samples->items[i];
        const std::string where =
            "samples[" + std::to_string(i) + "]: ";
        if (!sv.isObject())
            return fail(error, where + "not an object");
        ChurnSample s;
        if (!fieldU64(sv, "at", &s.at, &sub) ||
            !fieldU64(sv, "live", &s.live, &sub) ||
            !fieldU64(sv, "leased_slices", &s.leasedSlices,
                      &sub) ||
            !fieldU64(sv, "leased_banks", &s.leasedBanks, &sub) ||
            !fieldU64(sv, "rejected", &s.rejected, &sub) ||
            !fieldU64(sv, "evictions", &s.evictions, &sub) ||
            !fieldU64(sv, "materialized", &s.materialized, &sub) ||
            !fieldDouble(sv, "revenue", &s.revenue, &sub) ||
            !fieldDouble(sv, "fragmentation", &s.fragmentation,
                         &sub)) {
            return fail(error, where + sub);
        }
        series.push_back(s);
    }

    // --- Queue ---------------------------------------------------
    std::vector<Queued> pending;
    if (!queueFromJson(root.get("queue"), nextSeq, &pending, error))
        return false;

    // Everything validated: commit atomically.  A mid-stream
    // checkpoint keeps streaming only after resumeStream().
    fleet_ = std::move(fleet);
    leases_ = std::move(book);
    byName_ = std::move(byName);
    byLocal_ = std::move(byLocal);
    nextLease_ = nextLease;
    replaced_ = replaced;
    dirty_ = std::move(dirtySet);
    samples_ = std::move(series);
    streamPrev_ = streamPrev;
    streamEnd_ = streamEnd;
    adoptRestoredSpine(std::move(pending), clock, nextSeq, st);
    return true;
}

bool
FleetEngine::checkInvariants(std::string *error) const
{
    auto failWith = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    // Each materialized chip audits itself, then the fleet checks
    // the cross-chip glue: the placement index, the lease book, and
    // the occupancy arithmetic.
    std::uint64_t chipAllocations = 0;
    for (ChipId id = 0; id < fleet_.chipCount(); ++id) {
        const Chip *c = fleet_.peek(id);
        if (!c)
            continue;
        std::string cerr;
        if (!c->fabric.checkConsistency(&cerr))
            return failWith("chip " + std::to_string(id) + ": " +
                            cerr);
        if (!c->market.checkConsistency(&cerr))
            return failWith("chip " + std::to_string(id) + ": " +
                            cerr);
        const std::vector<FabricAllocation> allocs =
            c->fabric.allocations();
        chipAllocations += allocs.size();
        std::uint64_t leased = 0;
        for (const FabricAllocation &fa : allocs) {
            auto local = byLocal_.find(std::make_pair(id, fa.id));
            if (local == byLocal_.end())
                return failWith("chip " + std::to_string(id) +
                                " allocation " +
                                std::to_string(fa.id) +
                                " has no lease");
            leased += fa.slices.count;
        }
        if (leased + c->fabric.freeSlices() +
                c->fabric.faultySlices() !=
            c->fabric.totalSlices()) {
            return failWith("chip " + std::to_string(id) +
                            ": Slice occupancy does not close");
        }
        // The market cannot sell more than the chip has.
        if (c->market.sliceCapacity() >
                static_cast<double>(c->fabric.totalSlices()) ||
            c->market.bankCapacity() >
                static_cast<double>(c->fabric.totalBanks())) {
            return failWith("chip " + std::to_string(id) +
                            ": market capacity exceeds the fabric's "
                            "totals");
        }
    }
    if (!fleet_.checkIndex(error))
        return false;

    if (chipAllocations != leases_.size())
        return failWith(
            "lease book has " + std::to_string(leases_.size()) +
            " entries but the fleet holds " +
            std::to_string(chipAllocations) + " allocations");
    if (byName_.size() != leases_.size() ||
        byLocal_.size() != leases_.size()) {
        return failWith("lease lookup maps are out of step with "
                        "the book");
    }
    for (const auto &[id, lease] : leases_) {
        const Chip *c = fleet_.peek(lease.chip);
        if (!c)
            return failWith("lease " + std::to_string(id) +
                            " sits on virgin chip " +
                            std::to_string(lease.chip));
        const FabricAllocation *fa = c->fabric.find(lease.local);
        if (!fa)
            return failWith("lease " + std::to_string(id) +
                            " has no chip allocation");
        if (lease.slices != fa->slices.count ||
            lease.banks !=
                static_cast<unsigned>(fa->banks.size())) {
            return failWith("lease " + std::to_string(id) + " ('" +
                            lease.tenant +
                            "') disagrees with its chip "
                            "allocation's shape");
        }
        if (lease.hasCustomer) {
            if (lease.customer >= c->market.customers().size())
                return failWith("lease " + std::to_string(id) +
                                " points outside chip " +
                                std::to_string(lease.chip) +
                                "'s market book");
            if (!c->market.customer(lease.customer).active)
                return failWith("lease " + std::to_string(id) +
                                " references a departed customer");
        }
        if (lease.id >= nextLease_)
            return failWith("lease id " + std::to_string(id) +
                            " is not below the id counter");
        if (lease.arrivedAt > now())
            return failWith("lease " + std::to_string(id) +
                            " arrived after the clock");
    }
    for (ChipId id : dirty_) {
        if (!fleet_.isMaterialized(id))
            return failWith("dirty set names virgin chip " +
                            std::to_string(id));
    }
    if (leases_.size() > stats_.admitted)
        return failWith(std::to_string(leases_.size()) +
                        " live leases but only " +
                        std::to_string(stats_.admitted) +
                        " admissions recorded");
    return true;
}

study::Report
FleetEngine::finalReport() const
{
    study::Report r;
    r.id = "fleet";
    r.title = "Fleet engine final state";
    r.addMeta("schema", engine::kStateSchema);
    r.addMeta("chips", fleet_.chipCount());
    r.addMeta("chip", std::to_string(cfg_.fleet.chipWidth) + "x" +
                          std::to_string(cfg_.fleet.chipHeight));
    r.addMeta("clock",
              study::Value(static_cast<unsigned long long>(now())));

    study::Table &counters =
        r.addTable("fleet_counters", "Event counters");
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
    count("replaced_across_chips", replaced_);
    count("epochs", stats_.epochs);
    count("auction_rounds", stats_.auctionRounds);
    count("checkpoints", stats_.checkpoints);
    count("reconfig_cycles", stats_.reconfigCycles);

    const ChurnSample s = sampleNow();
    study::Table &occ =
        r.addTable("fleet_occupancy", "Fleet occupancy");
    occ.col("metric", study::Value::Kind::Text)
        .col("value", study::Value::Kind::Real, 4);
    occ.addRow({"materialized_chips",
                static_cast<double>(s.materialized)});
    occ.addRow({"live_leases", static_cast<double>(s.live)});
    occ.addRow({"leased_slices",
                static_cast<double>(s.leasedSlices)});
    occ.addRow({"leased_banks",
                static_cast<double>(s.leasedBanks)});
    const double totalSlices =
        static_cast<double>(fleet_.perChipSlices()) *
        static_cast<double>(fleet_.chipCount());
    occ.addRow({"slice_utilization",
                totalSlices > 0.0
                    ? static_cast<double>(s.leasedSlices) /
                          totalSlices
                    : 0.0});
    occ.addRow({"mean_fragmentation", s.fragmentation});
    occ.addRow({"revenue", s.revenue});

    study::Table &placement =
        r.addTable("fleet_placement", "Placement index work");
    placement.col("metric", study::Value::Kind::Text)
        .col("value", study::Value::Kind::Real, 4);
    const double lookups =
        static_cast<double>(fleet_.index().lookups());
    placement.addRow({"lookups", lookups});
    placement.addRow({"tier_probes",
                      static_cast<double>(
                          fleet_.index().tierProbes())});
    placement.addRow(
        {"probes_per_lookup",
         lookups > 0.0
             ? static_cast<double>(fleet_.index().tierProbes()) /
                   lookups
             : 0.0});

    study::Table &churn = r.addTable(
        "fleet_churn", "Per-epoch churn samples (time series)");
    churn.col("at", study::Value::Kind::Integer)
        .col("live", study::Value::Kind::Integer)
        .col("leased_slices", study::Value::Kind::Integer)
        .col("utilization", study::Value::Kind::Real, 4)
        .col("revenue", study::Value::Kind::Real, 4)
        .col("fragmentation", study::Value::Kind::Real, 4)
        .col("rejected", study::Value::Kind::Integer)
        .col("evictions", study::Value::Kind::Integer)
        .col("materialized", study::Value::Kind::Integer);
    for (const ChurnSample &cs : samples_) {
        churn.addRow(
            {study::Value(static_cast<unsigned long long>(cs.at)),
             study::Value(
                 static_cast<unsigned long long>(cs.live)),
             study::Value(static_cast<unsigned long long>(
                 cs.leasedSlices)),
             totalSlices > 0.0
                 ? static_cast<double>(cs.leasedSlices) /
                       totalSlices
                 : 0.0,
             cs.revenue, cs.fragmentation,
             study::Value(
                 static_cast<unsigned long long>(cs.rejected)),
             study::Value(
                 static_cast<unsigned long long>(cs.evictions)),
             study::Value(static_cast<unsigned long long>(
                 cs.materialized))});
    }
    return r;
}

} // namespace sharch::fleet
