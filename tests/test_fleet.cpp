/**
 * @file
 * The fleet subsystem: tiered placement-index best-fit, lazy chip
 * materialization, workload-stream determinism, and the fleet
 * engine's churn/checkpoint/invariant contracts (ISSUE 10).
 */

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "area/area_model.hh"
#include "core/perf_model.hh"
#include "econ/optimizer.hh"
#include "engine/event.hh"
#include "fleet/fleet.hh"
#include "fleet/fleet_engine.hh"
#include "fleet/placement_index.hh"
#include "fleet/workload_stream.hh"
#include "study/report.hh"

using namespace sharch;
using namespace sharch::fleet;

namespace {

UtilityOptimizer &
fleetOpt()
{
    static PerfModel pm(2000, 1);
    static AreaModel am;
    static UtilityOptimizer opt(pm, am);
    return opt;
}

} // namespace

// --- PlacementIndex ------------------------------------------------

TEST(PlacementIndex, BestFitSmallestRunThenFewestBanks)
{
    PlacementIndex idx(8);
    idx.insert(0, 8, 32); // virgin-like: plenty of everything
    idx.insert(1, 4, 8);  // tight run, tight banks
    idx.insert(2, 4, 16); // tight run, more banks
    idx.insert(3, 6, 4);  // bigger run, few banks

    // Smallest adequate run tier wins, then fewest adequate banks.
    EXPECT_EQ(idx.find(4, 8), std::optional<ChipId>(1));
    EXPECT_EQ(idx.find(4, 12), std::optional<ChipId>(2));
    EXPECT_EQ(idx.find(5, 4), std::optional<ChipId>(3));
    EXPECT_EQ(idx.find(5, 8), std::optional<ChipId>(0));
    EXPECT_EQ(idx.find(8, 1), std::optional<ChipId>(0));
    // Nothing offers a 9-run or 33 banks.
    EXPECT_EQ(idx.find(9, 1), std::nullopt);
    EXPECT_EQ(idx.find(1, 33), std::nullopt);
}

TEST(PlacementIndex, TiesBreakOnLowestChipId)
{
    PlacementIndex idx(8);
    idx.insert(7, 4, 8);
    idx.insert(3, 4, 8);
    idx.insert(5, 4, 8);
    EXPECT_EQ(idx.find(4, 8), std::optional<ChipId>(3));
}

TEST(PlacementIndex, UpdateRefilesAndCountsProbes)
{
    PlacementIndex idx(8);
    idx.insert(0, 2, 2);
    EXPECT_EQ(idx.keys(0),
              (std::optional<std::pair<unsigned, unsigned>>{
                  {2u, 2u}}));
    EXPECT_EQ(idx.find(4, 1), std::nullopt);

    idx.update(0, 6, 10);
    EXPECT_EQ(idx.find(4, 1), std::optional<ChipId>(0));
    EXPECT_EQ(idx.keys(0),
              (std::optional<std::pair<unsigned, unsigned>>{
                  {6u, 10u}}));

    // Two lookups so far; a failing lookup probes every tier from
    // the request up, a hit stops at its tier.
    EXPECT_EQ(idx.lookups(), 2u);
    EXPECT_GT(idx.tierProbes(), 0u);
}

// --- Fleet ---------------------------------------------------------

TEST(Fleet, LazyMaterializationAndBestFitPacking)
{
    FleetConfig cfg;
    cfg.chips = 1000;
    Fleet fleet(fleetOpt(), cfg);
    EXPECT_EQ(fleet.materializedChips(), 0u);
    EXPECT_EQ(fleet.peek(0), nullptr);

    // Best-fit keeps filling the dirtiest adequate chip before
    // touching a virgin one: a handful of tenants stay on one chip.
    std::vector<Placement> placed;
    for (int i = 0; i < 6; ++i) {
        auto p = fleet.place(2, 2);
        ASSERT_TRUE(p.has_value());
        placed.push_back(*p);
    }
    std::set<ChipId> chips;
    for (const Placement &p : placed)
        chips.insert(p.chip);
    EXPECT_LE(chips.size(), 2u);
    EXPECT_LE(fleet.materializedChips(), 2u);

    std::string err;
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;
    for (const Placement &p : placed)
        EXPECT_TRUE(fleet.release(p.chip, p.local));
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;
}

TEST(Fleet, SpillsAcrossChipsWhenOneIsFull)
{
    FleetConfig cfg;
    cfg.chips = 4;
    cfg.chipWidth = 4;
    cfg.chipHeight = 2; // 4 Slices + 4 banks per chip
    Fleet fleet(fleetOpt(), cfg);

    std::set<ChipId> chips;
    for (int i = 0; i < 4; ++i) {
        auto p = fleet.place(4, 4); // one whole chip each
        ASSERT_TRUE(p.has_value());
        EXPECT_TRUE(chips.insert(p->chip).second)
            << "chip reused while full";
    }
    // The fleet is saturated now.
    EXPECT_EQ(fleet.place(1, 1), std::nullopt);
    std::string err;
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;
}

TEST(Fleet, FaultsMaterializeRefileAndHeal)
{
    FleetConfig cfg;
    cfg.chips = 8;
    Fleet fleet(fleetOpt(), cfg);

    EXPECT_FALSE(
        fleet.isFaulty(3, fault::FaultKind::Slice, Coord{0, 0}));
    fleet.markFaulty(3, fault::FaultKind::Slice, Coord{0, 0});
    EXPECT_TRUE(fleet.isMaterialized(3));
    EXPECT_TRUE(
        fleet.isFaulty(3, fault::FaultKind::Slice, Coord{0, 0}));
    std::string err;
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;

    EXPECT_TRUE(fleet.heal(3, fault::FaultKind::Slice, Coord{0, 0}));
    EXPECT_FALSE(
        fleet.isFaulty(3, fault::FaultKind::Slice, Coord{0, 0}));
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;
    // Healing a virgin chip is a polite no-op, not a materialization.
    EXPECT_FALSE(fleet.heal(5, fault::FaultKind::Bank, Coord{0, 1}));
    EXPECT_FALSE(fleet.isMaterialized(5));
}

TEST(Fleet, RecordsEachChipsLoadAndCheckIndexCatchesAStaleOne)
{
    FleetConfig cfg;
    cfg.chips = 4;
    Fleet fleet(fleetOpt(), cfg);
    const std::optional<Placement> where = fleet.place(2, 3);
    ASSERT_TRUE(where.has_value());
    const ChipLoad &load = fleet.peek(where->chip)->load;
    EXPECT_EQ(load.usedSlices, 2u);
    EXPECT_EQ(load.usedBanks, 3u);
    EXPECT_DOUBLE_EQ(load.fragmentation,
                     fleet.peek(where->chip)->fabric.fragmentation());
    std::string err;
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;

    // A mutation behind the Fleet's back that leaves the index keys
    // right (other rows still offer a full run; no bank is taken)
    // but the recorded load stale.
    Chip &other = fleet.chip(3);
    ASSERT_TRUE(other.fabric.allocate(1, 0).has_value());
    EXPECT_FALSE(fleet.checkIndex(&err));
    EXPECT_NE(err.find("chip 3 records"), std::string::npos) << err;
    fleet.refreshChip(3);
    EXPECT_TRUE(fleet.checkIndex(&err)) << err;
    EXPECT_EQ(fleet.peek(3)->load.usedSlices, 1u);
}

// --- WorkloadStream ------------------------------------------------

TEST(WorkloadStream, TenantIsAPureFunctionOfSeedAndIndex)
{
    WorkloadConfig cfg;
    cfg.seed = 42;
    const WorkloadStream a(cfg);
    const WorkloadStream b(cfg);

    // Same (index, prev) in any evaluation order: same tenant.
    const FleetTenant t5 = a.tenant(5, 12345);
    const FleetTenant t2 = a.tenant(2, 999);
    EXPECT_EQ(b.tenant(2, 999).at, t2.at);
    const FleetTenant t5again = b.tenant(5, 12345);
    EXPECT_EQ(t5again.at, t5.at);
    EXPECT_EQ(t5again.name, t5.name);
    EXPECT_EQ(t5again.slices, t5.slices);
    EXPECT_EQ(t5again.banks, t5.banks);
    EXPECT_EQ(t5again.benchmark, t5.benchmark);
    EXPECT_EQ(t5again.lifetime, t5.lifetime);
    EXPECT_DOUBLE_EQ(t5again.budget, t5.budget);
}

TEST(WorkloadStream, DrawsStayInConfiguredRanges)
{
    WorkloadConfig cfg;
    cfg.seed = 7;
    const WorkloadStream s(cfg);
    Cycles prev = 0;
    for (std::uint64_t i = 0; i < 500; ++i) {
        const FleetTenant t = s.tenant(i, prev);
        EXPECT_GT(t.at, prev) << "arrivals must advance";
        EXPECT_GE(t.slices, 1u);
        EXPECT_LE(t.slices, cfg.maxSlices);
        EXPECT_GE(t.banks, 1u);
        EXPECT_LE(t.banks, cfg.maxBanks);
        EXPECT_GE(t.lifetime, Cycles{1});
        EXPECT_GE(t.budget, cfg.minBudget);
        EXPECT_LE(t.budget, cfg.maxBudget);
        EXPECT_EQ(t.name, WorkloadStream::tenantName(i));
        prev = t.at;
    }
}

TEST(WorkloadStream, SeedSelectsADifferentTrajectory)
{
    WorkloadConfig a, b;
    a.seed = 1;
    b.seed = 2;
    const WorkloadStream sa(a), sb(b);
    bool differs = false;
    Cycles prevA = 0, prevB = 0;
    for (std::uint64_t i = 0; i < 32 && !differs; ++i) {
        const FleetTenant ta = sa.tenant(i, prevA);
        const FleetTenant tb = sb.tenant(i, prevB);
        differs = ta.at != tb.at || ta.slices != tb.slices ||
                  ta.benchmark != tb.benchmark;
        prevA = ta.at;
        prevB = tb.at;
    }
    EXPECT_TRUE(differs);
}

// --- FleetEngine ---------------------------------------------------

namespace {

FleetEngineConfig
smallFleet()
{
    FleetEngineConfig cfg;
    cfg.fleet.chips = 32;
    cfg.epochPeriod = 10000;
    return cfg;
}

WorkloadConfig
fastChurn(std::uint64_t seed)
{
    WorkloadConfig w;
    w.seed = seed;
    w.meanGap = 150.0;
    w.meanLifetime = 30000.0;
    w.dayLength = 1 << 16;
    return w;
}

} // namespace

TEST(FleetEngine, StreamChurnClosesItsBooks)
{
    FleetEngine eng(fleetOpt(), smallFleet());
    const WorkloadStream stream(fastChurn(11));
    eng.startStream(stream, 600);
    eng.run();

    const engine::EngineStats &s = eng.stats();
    EXPECT_EQ(s.arrivals, 600u);
    EXPECT_EQ(s.admitted + s.rejected, s.arrivals);
    // Every admitted tenant's lifetime elapsed inside the horizon:
    // the books are closed.
    EXPECT_EQ(s.departures, s.admitted);
    EXPECT_TRUE(eng.leases().empty());
    EXPECT_EQ(eng.leasedSlices(), 0u);
    EXPECT_EQ(s.unmatchedDeparts, 0u);
    EXPECT_GT(s.epochs, 0u);
    EXPECT_FALSE(eng.samples().empty());

    std::string err;
    EXPECT_TRUE(eng.checkInvariants(&err)) << err;
}

TEST(FleetEngine, MidStreamCheckpointResumesByteIdentically)
{
    const WorkloadStream stream(fastChurn(23));

    FleetEngine full(fleetOpt(), smallFleet());
    full.startStream(stream, 400);
    full.post(engine::checkpoint(30000, "mid-stream"));
    full.run();
    ASSERT_FALSE(full.lastCheckpoint().empty());
    EXPECT_GT(full.stats().processed, 800u);

    FleetEngine resumed(fleetOpt(), smallFleet());
    std::string err;
    ASSERT_TRUE(resumed.restoreState(full.lastCheckpoint(), &err))
        << err;
    EXPECT_TRUE(resumed.checkInvariants(&err)) << err;
    resumed.resumeStream(stream);
    resumed.run();

    EXPECT_EQ(study::renderJson(resumed.finalReport()),
              study::renderJson(full.finalReport()));
    EXPECT_EQ(resumed.saveState(), full.saveState());
}

TEST(FleetEngine, RejectsSingleChipEventsAndForeignStates)
{
    FleetEngine eng(fleetOpt(), smallFleet());
    const engine::EventOutcome out = eng.execute(engine::tenantArrive(
        0, "t", "gcc", UtilityKind::Throughput, 0.0, 2, 2));
    EXPECT_FALSE(out.applied);
    EXPECT_NE(out.detail.find("single-chip"), std::string::npos);

    // A chip-engine state document must be refused by kind.
    std::string err;
    EXPECT_FALSE(eng.restoreState(
        "{\"schema\":\"sharch-state-v1\",\"kind\":\"chip\"}", &err));
    EXPECT_NE(err.find("fleet"), std::string::npos);
}

TEST(FleetEngine, FaultEvictionIsReplacedAcrossChips)
{
    FleetEngineConfig cfg;
    cfg.fleet.chips = 4;
    cfg.fleet.chipWidth = 4;
    cfg.fleet.chipHeight = 2; // 4 Slices + 4 banks per chip
    FleetEngine eng(fleetOpt(), cfg);

    // One budget-less tenant filling chip 0 edge to edge.
    engine::EventOutcome out = eng.execute(engine::fleetArrive(
        0, "whale", "", UtilityKind::Throughput, 0.0, 4, 2, 0));
    ASSERT_TRUE(out.applied);
    ASSERT_EQ(eng.leases().size(), 1u);
    EXPECT_EQ(eng.leases().begin()->second.chip, 0u);

    // Strike every Slice of chip 0: nothing can shrink-fit, so the
    // tenant is evicted there -- and re-placed on another chip.
    std::vector<fault::FaultEvent> strikes;
    for (int c = 0; c < 4; ++c)
        strikes.push_back(fault::FaultEvent{
            100 + static_cast<Cycles>(c), fault::FaultKind::Slice,
            Coord{c, 0}, false});
    eng.postFaultSchedule(0, strikes);
    eng.run();

    EXPECT_EQ(eng.stats().faults, 4u);
    EXPECT_EQ(eng.stats().evictions, 0u)
        << "the fleet-level second chance must absorb the eviction";
    EXPECT_EQ(eng.replacedAcrossChips(), 1u);
    ASSERT_EQ(eng.leases().size(), 1u);
    const FleetLease &lease = eng.leases().begin()->second;
    EXPECT_NE(lease.chip, 0u);
    // Graceful degradation shrank the run strike by strike (4 -> 3
    // -> 2 -> 1) before the final strike evicted the remnant, so the
    // re-placed lease carries its degraded 1-Slice shape.
    EXPECT_EQ(lease.slices, 1u);

    std::string err;
    EXPECT_TRUE(eng.checkInvariants(&err)) << err;
}

TEST(FleetEngine, HealCreditsOnlyCapacityItsFaultCharged)
{
    // One 2x2 chip sells 2 Slices and 2 banks.  Each resource's
    // second fault would empty the chip's market, so it charges
    // nothing -- and its heal must credit nothing either.
    FleetEngineConfig cfg;
    cfg.fleet.chips = 1;
    cfg.fleet.chipWidth = 2;
    cfg.fleet.chipHeight = 2;
    FleetEngine eng(fleetOpt(), cfg);
    std::vector<fault::FaultEvent> schedule;
    Cycles at = 10;
    for (fault::FaultKind kind :
         {fault::FaultKind::Slice, fault::FaultKind::Bank}) {
        const int row = kind == fault::FaultKind::Slice ? 0 : 1;
        for (bool heal : {false, true}) {
            for (int x = 0; x < 2; ++x)
                schedule.push_back(
                    fault::FaultEvent{at++, kind, Coord{x, row}, heal});
        }
    }
    eng.postFaultSchedule(0, schedule);
    eng.run();
    EXPECT_EQ(eng.stats().faults, 4u);
    EXPECT_EQ(eng.stats().heals, 4u);
    const Chip *chip = eng.fleet().peek(0);
    ASSERT_NE(chip, nullptr);
    EXPECT_DOUBLE_EQ(chip->market.sliceCapacity(), 2.0);
    EXPECT_DOUBLE_EQ(chip->market.bankCapacity(), 2.0);
    std::string err;
    EXPECT_TRUE(eng.checkInvariants(&err)) << err;
}

TEST(FleetEngine, FailedReshapeKeepsLeaseAndFabricInStep)
{
    // One 8x8 chip: a's Slices could grow into x's old tiles, but no
    // bank is free, so the reshape fails and must change nothing.
    FleetEngineConfig cfg;
    cfg.fleet.chips = 1;
    FleetEngine eng(fleetOpt(), cfg);
    auto arrive = [&](const std::string &tenant, unsigned slices,
                      unsigned banks) {
        return eng.execute(engine::fleetArrive(
            0, tenant, "", UtilityKind::Throughput, 0.0, slices, banks,
            0));
    };
    const engine::EventOutcome a = arrive("a", 2, 2);
    ASSERT_TRUE(a.applied);
    ASSERT_TRUE(arrive("x", 6, 0).applied);
    for (int i = 0; i < 15; ++i)
        ASSERT_TRUE(arrive("f" + std::to_string(i), 1, 2).applied);
    ASSERT_TRUE(eng.execute(engine::fleetDepart(1, "x")).applied);

    const engine::EventOutcome r =
        eng.execute(engine::reshapeEvent(2, a.lease, 4, 4));
    EXPECT_FALSE(r.applied);
    EXPECT_EQ(eng.leases().at(a.lease).slices, 2u);
    std::string err;
    EXPECT_TRUE(eng.checkInvariants(&err)) << err;
}

TEST(FleetEngine, BoundedQueueRefusesAndKeepsServing)
{
    FleetEngineConfig cfg = smallFleet();
    cfg.maxPending = 2;
    FleetEngine eng(fleetOpt(), cfg);

    ASSERT_TRUE(eng.post(engine::epochAuction(10)).has_value());
    ASSERT_TRUE(eng.post(engine::epochAuction(20)).has_value());
    EXPECT_FALSE(eng.post(engine::epochAuction(30)).has_value());
    eng.run();
    EXPECT_EQ(eng.stats().epochs, 2u);
    // Draining the queue frees capacity again.
    EXPECT_TRUE(eng.post(engine::epochAuction(40)).has_value());
    eng.run();
    EXPECT_EQ(eng.stats().epochs, 3u);
}
