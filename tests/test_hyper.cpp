/**
 * @file
 * Tests for the hypervisor layer: the fabric allocator (contiguity,
 * fragmentation, defragmentation, reshape), the sub-core spot market,
 * and the auto-tuner of section 4.
 */

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "hyper/autotuner.hh"
#include "hyper/fabric_manager.hh"
#include "engine/fault_replay.hh"
#include "hyper/spot_market.hh"

using namespace sharch;

TEST(FabricManager, CapacityFromGeometry)
{
    // Even rows are Slices, odd rows banks.
    const FabricManager fm(8, 4);
    EXPECT_EQ(fm.totalSlices(), 16u);
    EXPECT_EQ(fm.totalBanks(), 16u);
    EXPECT_EQ(fm.freeSlices(), 16u);
    EXPECT_EQ(fm.freeBanks(), 16u);
    EXPECT_DOUBLE_EQ(fm.sliceUtilization(), 0.0);
}

TEST(FabricManager, AllocatesContiguousSlices)
{
    FabricManager fm(8, 4);
    const auto id = fm.allocate(4, 2);
    ASSERT_TRUE(id.has_value());
    const FabricAllocation *a = fm.find(*id);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->slices.count, 4u);
    EXPECT_EQ(a->banks.size(), 2u);
    EXPECT_EQ(fm.freeSlices(), 12u);
    EXPECT_EQ(fm.freeBanks(), 14u);
}

TEST(FabricManager, BanksNeedNotBeContiguousButAreNear)
{
    FabricManager fm(8, 4);
    const auto id = fm.allocate(2, 6);
    ASSERT_TRUE(id.has_value());
    const FabricAllocation *a = fm.find(*id);
    // All banks on odd rows, within the chip.
    for (const Coord &b : a->banks) {
        EXPECT_EQ(b.y % 2, 1);
        EXPECT_GE(b.x, 0);
        EXPECT_LT(b.x, 8);
    }
    // No duplicates.
    std::set<std::pair<int, int>> uniq;
    for (const Coord &b : a->banks)
        uniq.insert({b.x, b.y});
    EXPECT_EQ(uniq.size(), a->banks.size());
}

TEST(FabricManager, RejectsImpossibleRequests)
{
    FabricManager fm(4, 2); // 4 Slices, 4 banks
    EXPECT_FALSE(fm.allocate(5, 0).has_value());  // run too long
    EXPECT_FALSE(fm.allocate(1, 5).has_value());  // not enough banks
    EXPECT_FALSE(fm.allocate(0, 1).has_value());  // empty VCore
    EXPECT_TRUE(fm.allocate(4, 4).has_value());
    EXPECT_FALSE(fm.allocate(1, 0).has_value());  // chip full
}

TEST(FabricManager, ReleaseReturnsResources)
{
    FabricManager fm(8, 2);
    const auto id = fm.allocate(8, 8);
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(fm.freeSlices(), 0u);
    EXPECT_TRUE(fm.release(*id));
    EXPECT_EQ(fm.freeSlices(), 8u);
    EXPECT_EQ(fm.freeBanks(), 8u);
    EXPECT_FALSE(fm.release(*id)); // double release
    EXPECT_EQ(fm.find(*id), nullptr);
}

TEST(FabricManager, NoOverlapAcrossAllocations)
{
    FabricManager fm(8, 6);
    std::vector<AllocationId> ids;
    for (int i = 0; i < 5; ++i) {
        const auto id = fm.allocate(3, 3);
        if (id)
            ids.push_back(*id);
    }
    std::set<std::pair<int, int>> slice_cells, bank_cells;
    for (AllocationId id : ids) {
        const FabricAllocation *a = fm.find(id);
        for (unsigned i = 0; i < a->slices.count; ++i) {
            const bool fresh =
                slice_cells
                    .insert({a->slices.row,
                             a->slices.col + static_cast<int>(i)})
                    .second;
            EXPECT_TRUE(fresh);
        }
        for (const Coord &b : a->banks)
            EXPECT_TRUE(bank_cells.insert({b.x, b.y}).second);
    }
}

TEST(FabricManager, FragmentationAndDefrag)
{
    FabricManager fm(8, 2); // one row of 8 Slices
    const auto a = fm.allocate(2, 0);
    const auto b = fm.allocate(2, 0);
    const auto c = fm.allocate(2, 0);
    ASSERT_TRUE(a && b && c);
    // Free the middle run: 4 free Slices but max run only 2.
    ASSERT_TRUE(fm.release(*b));
    EXPECT_EQ(fm.freeSlices(), 4u);
    EXPECT_EQ(fm.largestFreeRun(), 2u);
    EXPECT_GT(fm.fragmentation(), 0.0);
    EXPECT_FALSE(fm.allocate(4, 0).has_value()); // fragmented

    const auto moves = fm.defragment();
    EXPECT_FALSE(moves.empty());
    for (const DefragMove &mv : moves)
        EXPECT_EQ(mv.cost, 500u); // Register Flush, Slice-only cost
    EXPECT_EQ(fm.largestFreeRun(), 4u);
    EXPECT_DOUBLE_EQ(fm.fragmentation(), 0.0);
    EXPECT_TRUE(fm.allocate(4, 0).has_value());
}

TEST(FabricManager, DefragPreservesAllocationSizes)
{
    FabricManager fm(8, 4);
    const auto a = fm.allocate(3, 2);
    const auto b = fm.allocate(2, 1);
    const auto c = fm.allocate(3, 0);
    ASSERT_TRUE(a && b && c);
    fm.release(*b);
    fm.defragment();
    EXPECT_EQ(fm.find(*a)->slices.count, 3u);
    EXPECT_EQ(fm.find(*c)->slices.count, 3u);
    EXPECT_EQ(fm.find(*a)->banks.size(), 2u);
}

TEST(FabricManager, ReshapeGrowsAndShrinks)
{
    FabricManager fm(8, 2);
    const auto id = fm.allocate(2, 2);
    ASSERT_TRUE(id.has_value());

    // Slice-only growth: 500 cycles.
    auto cost = fm.reshape(*id, 4, 2);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 500u);
    EXPECT_EQ(fm.find(*id)->slices.count, 4u);
    EXPECT_EQ(fm.freeSlices(), 4u);

    // Bank change: L2 flush, 10,000 cycles.
    cost = fm.reshape(*id, 4, 6);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 10000u);
    EXPECT_EQ(fm.find(*id)->banks.size(), 6u);

    // Shrink back; resources return.
    cost = fm.reshape(*id, 1, 0);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(fm.freeSlices(), 7u);
    EXPECT_EQ(fm.freeBanks(), 8u);
}

TEST(FabricManager, ReshapeFailsWhenBlocked)
{
    FabricManager fm(8, 2);
    const auto a = fm.allocate(4, 0);
    const auto b = fm.allocate(4, 0);
    ASSERT_TRUE(a && b);
    // No free neighbours anywhere: growth must fail, allocation
    // unchanged.
    EXPECT_FALSE(fm.reshape(*a, 6, 0).has_value());
    EXPECT_EQ(fm.find(*a)->slices.count, 4u);
}

TEST(FabricManager, FailedReshapeChangesNothing)
{
    // The Slice growth fits (x leaves its tiles free) but every bank
    // is taken: the reshape must fail before the Slice run moves.
    FabricManager fm(8, 8);
    const auto a = fm.allocate(2, 2);
    const auto x = fm.allocate(6, 0);
    ASSERT_TRUE(a && x);
    while (fm.freeBanks() > 0)
        ASSERT_TRUE(fm.allocate(1, std::min(2u, fm.freeBanks())));
    fm.release(*x);
    FabricManager slices_only = fm;
    ASSERT_TRUE(slices_only.reshape(*a, 4, 2).has_value());

    const FabricAllocation before = *fm.find(*a);
    const unsigned free_slices = fm.freeSlices();
    EXPECT_FALSE(fm.reshape(*a, 4, 4).has_value());
    const FabricAllocation &after = *fm.find(*a);
    EXPECT_EQ(after.slices.row, before.slices.row);
    EXPECT_EQ(after.slices.col, before.slices.col);
    EXPECT_EQ(after.slices.count, 2u);
    EXPECT_EQ(after.banks.size(), before.banks.size());
    EXPECT_EQ(fm.freeSlices(), free_slices);
    EXPECT_EQ(fm.freeBanks(), 0u);
}

namespace {

PerfModel &
hyperPerf()
{
    static PerfModel pm(4000);
    return pm;
}

UtilityOptimizer &
hyperOpt()
{
    static UtilityOptimizer opt(hyperPerf(), AreaModel{});
    return opt;
}

} // namespace

TEST(SpotMarket, PricesRiseUnderExcessDemand)
{
    // Tiny capacity, several rich customers: prices must climb.
    SpotMarket market(hyperOpt(), 4.0, 8.0);
    for (int i = 0; i < 4; ++i) {
        market.addCustomer(SpotCustomer{"c" + std::to_string(i),
                                        "gcc",
                                        UtilityKind::Balanced,
                                        defaultBudget()});
    }
    const double slice0 = market.prices().slicePrice;
    const double bank0 = market.prices().bankPrice;
    const SpotRound round = market.step();
    // Whichever resource is oversubscribed must get dearer (Slices
    // always are here; banks only if the customers' optima use any).
    EXPECT_GT(round.sliceExcess, 0.0);
    EXPECT_GT(market.prices().slicePrice, slice0);
    if (round.bankExcess > 0.0) {
        EXPECT_GT(market.prices().bankPrice, bank0);
    }
}

TEST(SpotMarket, PricesFallWhenIdle)
{
    SpotMarket market(hyperOpt(), 1e6, 1e6);
    market.addCustomer(SpotCustomer{"lonely", "hmmer",
                                    UtilityKind::Throughput, 100.0});
    const double slice0 = market.prices().slicePrice;
    market.step();
    EXPECT_LT(market.prices().slicePrice, slice0);
}

TEST(SpotMarket, ConvergesTowardClearing)
{
    SpotMarket market(hyperOpt(), 64.0, 256.0);
    market.addCustomer(SpotCustomer{"web", "apache",
                                    UtilityKind::Throughput, 300.0});
    market.addCustomer(SpotCustomer{"batch", "gcc",
                                    UtilityKind::Balanced, 300.0});
    market.addCustomer(SpotCustomer{"oldi", "omnetpp",
                                    UtilityKind::SingleStream, 300.0});
    const auto history = market.runToClearing(0.15, 60);
    ASSERT_FALSE(history.empty());
    const SpotRound &last = history.back();
    // Within tolerance, or the price floor explains the slack.
    EXPECT_LE(last.sliceExcess, 0.15 + 0.5);
    EXPECT_LE(last.bankExcess, 0.15 + 0.5);
    EXPECT_LT(history.size(), 61u);
    // Bids carry real shapes.
    for (const SpotBid &bid : last.bids) {
        EXPECT_GE(bid.choice.slices, 1u);
        EXPECT_GT(bid.choice.cores, 0.0);
    }
}

TEST(AutoTuner, ProtocolProposesAndConverges)
{
    AutoTuner tuner(UtilityKind::Balanced, market2(), defaultBudget());
    unsigned trials = 0;
    while (auto shape = tuner.nextShape()) {
        ASSERT_LT(++trials, 200u) << "tuner failed to converge";
        const double perf = hyperPerf().performance(
            "gcc", shape->banks, shape->slices);
        tuner.report(perf);
    }
    EXPECT_TRUE(tuner.converged());
    EXPECT_GE(tuner.history().size(), 4u);
    EXPECT_GT(tuner.best().utility, 0.0);
}

TEST(AutoTuner, FindsANearOptimalShape)
{
    AutoTuner tuner(UtilityKind::Balanced, market2(), defaultBudget());
    while (auto shape = tuner.nextShape()) {
        tuner.report(hyperPerf().performance("gcc", shape->banks,
                                             shape->slices));
    }
    const OptResult global = hyperOpt().peakUtility(
        "gcc", UtilityKind::Balanced, market2(), defaultBudget());
    // Hill climbing finds a local optimum within 2x of the global
    // one (the surface is benign; usually it finds the optimum).
    EXPECT_GE(tuner.best().utility, 0.5 * global.objective);
}

TEST(AutoTuner, AccountsReconfigurationCosts)
{
    AutoTuner tuner(UtilityKind::SingleStream, market2(),
                    defaultBudget(), VCoreShape{0, 1});
    while (auto shape = tuner.nextShape()) {
        tuner.report(hyperPerf().performance("omnetpp", shape->banks,
                                             shape->slices));
    }
    // omnetpp's single-stream optimum needs cache, so the tuner must
    // have moved at least once and paid for it.
    EXPECT_GT(tuner.reconfigurationSpent(), 0u);
    EXPECT_GT(tuner.best().shape.banks + tuner.best().shape.slices,
              1u);
}

TEST(FaultReplay, PacksTenantsAndAppliesSchedule)
{
    const fault::FaultSpec spec =
        fault::parseFaultSpec("slice:0:1,bank:1:2");
    ASSERT_TRUE(spec.ok());
    const FaultReplayResult r = replayFaults(spec, 8, 4, 4, 2);

    // 8x4 chip: 16 Slices / 16 banks; 4-Slice 2-bank tenants pack
    // four deep.
    EXPECT_EQ(r.tenants, 4u);
    EXPECT_EQ(r.events.size(), 2u);
    EXPECT_EQ(r.fabricWidth, 8);
    EXPECT_EQ(r.vcoreSlices, 4u);
    EXPECT_EQ(r.totalSlices, 16u);
    EXPECT_EQ(r.faultySlices, 1u);
    EXPECT_EQ(r.faultyBanks, 1u);
    // Somebody owned tile (0,1), so the fault forced a reaction.
    EXPECT_FALSE(r.events[0].second.empty());

    // Totals re-derive from the per-event log.
    unsigned replaced = 0, slices_lost = 0;
    Cycles cost = 0;
    for (const auto &[ev, actions] : r.events) {
        for (const DegradeAction &a : actions) {
            replaced += a.kind == DegradeKind::Replaced;
            slices_lost += a.slicesLost;
            cost += a.cost;
        }
    }
    EXPECT_EQ(r.replaced, replaced);
    EXPECT_EQ(r.slicesLost, slices_lost);
    EXPECT_EQ(r.reconfigCycles, cost);
}

TEST(FaultReplay, EventsJsonMirrorsTheLog)
{
    const fault::FaultSpec spec =
        fault::parseFaultSpec("slice:0:1,bank:1:2");
    ASSERT_TRUE(spec.ok());
    const FaultReplayResult r = replayFaults(spec, 8, 4, 4, 2);
    const std::string json = faultEventsJson(r);

    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"kind\":\"slice\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"bank\""), std::string::npos);
    EXPECT_NE(json.find("\"tile\":[0,1]"), std::string::npos);
    // One object per event.
    std::size_t at = 0, count = 0, pos = 0;
    while ((pos = json.find("\"at\":", at)) != std::string::npos) {
        ++count;
        at = pos + 1;
    }
    EXPECT_EQ(count, r.events.size());
}

TEST(FaultReplay, ReportCarriesSummaryAndEvents)
{
    const fault::FaultSpec spec =
        fault::parseFaultSpec("seed=3,mtbf=1000,count=5");
    ASSERT_TRUE(spec.ok());
    const FaultReplayResult r = replayFaults(spec, 8, 8, 4, 4);
    const study::Report report = faultReplayReport(r);

    EXPECT_EQ(report.id, "ssim_fault_replay");
    ASSERT_EQ(report.tables.size(), 1u);
    const study::Table &t = report.tables.front();
    ASSERT_EQ(t.columns.size(), 11u);
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_EQ(t.columns[0].name, "replaced");
    EXPECT_EQ(t.rows[0][0].integer,
              static_cast<std::int64_t>(r.replaced));
    ASSERT_EQ(report.rawJson.size(), 1u);
    EXPECT_EQ(report.rawJson[0].first, "events");
    EXPECT_EQ(report.rawJson[0].second, faultEventsJson(r));
    // The rendered document must still be one valid JSON value: the
    // events splice is a raw string, so this is where a stray quote
    // would surface.
    const std::string doc =
        study::render(report, study::Format::Json);
    EXPECT_NE(doc.find("\"events\""), std::string::npos);
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
}

// --- Churn invariants (ISSUE 10 satellite) -------------------------
//
// The fleet engine leans on FabricManager::defragment and
// SpotMarket::reauctionAfterFailure holding their invariants not just
// after one operation but after *thousands* of interleaved
// arrive/depart/fault/heal cycles.  These two tests churn the
// hypervisor layer the way datacenter_churn does and audit closure
// after every composite step.

namespace {

/** Occupied + free + faulty must tile the chip exactly. */
void
expectOccupancyClosure(const FabricManager &fm)
{
    unsigned heldSlices = 0, heldBanks = 0;
    for (const FabricAllocation &a : fm.allocations()) {
        heldSlices += a.slices.count;
        heldBanks += static_cast<unsigned>(a.banks.size());
    }
    EXPECT_EQ(heldSlices + fm.freeSlices() + fm.faultySlices(),
              fm.totalSlices());
    EXPECT_EQ(heldBanks + fm.freeBanks() + fm.faultyBanks(),
              fm.totalBanks());
}

} // namespace

TEST(FabricManager, DefragmentInvariantsUnderChurn)
{
    FabricManager fm(8, 8); // 32 Slices, 32 banks
    Rng rng(1234);
    std::vector<AllocationId> live;

    for (int step = 0; step < 4000; ++step) {
        const bool arrive =
            live.empty() || rng.nextBool(0.55);
        if (arrive) {
            const unsigned s =
                1 + static_cast<unsigned>(rng.nextBounded(6));
            const unsigned b =
                static_cast<unsigned>(rng.nextBounded(5));
            const auto id = fm.allocate(s, b);
            if (id.has_value())
                live.push_back(*id);
        } else {
            const std::size_t pick = static_cast<std::size_t>(
                rng.nextBounded(live.size()));
            ASSERT_TRUE(fm.release(live[pick]));
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        }

        if (step % 97 == 0) {
            // Shapes must survive compaction move for move.
            std::vector<std::pair<AllocationId, VCoreShape>> before;
            for (const AllocationId id : live) {
                const FabricAllocation *a = fm.find(id);
                ASSERT_NE(a, nullptr);
                before.emplace_back(id, a->shape());
            }
            const double fragBefore = fm.fragmentation();
            fm.defragment();
            EXPECT_LE(fm.fragmentation(), fragBefore);
            for (const auto &[id, shape] : before) {
                const FabricAllocation *a = fm.find(id);
                ASSERT_NE(a, nullptr) << "lease lost to defrag";
                EXPECT_EQ(a->shape().slices, shape.slices);
                EXPECT_EQ(a->shape().banks, shape.banks);
            }
        }

        std::string err;
        ASSERT_TRUE(fm.checkConsistency(&err))
            << "step " << step << ": " << err;
        expectOccupancyClosure(fm);
    }
    EXPECT_FALSE(live.empty()) << "churn never held an allocation";
}

TEST(SpotMarket, ReauctionInvariantsUnderFaultChurn)
{
    FabricManager fm(8, 8);
    SpotMarket market(hyperOpt(), fm.totalSlices(),
                      fm.totalBanks());
    Rng rng(99);
    const char *benches[] = {"gcc", "apache", "bzip"};
    std::vector<CustomerId> active;
    std::vector<Coord> faulted; // Slice tiles currently down
    int joined = 0;

    for (int step = 0; step < 1500; ++step) {
        const double roll = rng.nextDouble();
        if (roll < 0.45 || active.empty()) {
            active.push_back(market.addCustomer(SpotCustomer{
                "churn" + std::to_string(joined++),
                benches[rng.nextBounded(3)],
                kAllUtilities[rng.nextBounded(3)],
                4.0 + rng.nextDouble() * 20.0}));
        } else if (roll < 0.75) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.nextBounded(active.size()));
            market.deactivateCustomer(active[pick]);
            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        } else if (roll < 0.90 && faulted.size() < 16) {
            // Strike a random healthy Slice tile and reauction.
            const Coord tile{
                static_cast<int>(rng.nextBounded(8)),
                2 * static_cast<int>(rng.nextBounded(4))};
            if (!fm.isFaulty(fault::FaultKind::Slice, tile)) {
                fm.markFaulty(fault::FaultKind::Slice, tile);
                faulted.push_back(tile);
                const double priceBefore =
                    market.prices().slicePrice;
                const ReauctionResult r =
                    market.reauctionAfterFailure(1.0, 0.0, 0.15, 6);
                EXPECT_NEAR(r.refundTotal, priceBefore, 1e-9)
                    << "refund must be the lost capacity at the "
                       "pre-fault price";
            }
        } else if (!faulted.empty()) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.nextBounded(faulted.size()));
            ASSERT_TRUE(fm.heal(fault::FaultKind::Slice,
                                faulted[pick]));
            market.restoreCapacity(1.0, 0.0);
            faulted.erase(faulted.begin() +
                          static_cast<std::ptrdiff_t>(pick));
        }

        // Capacity closure: the market sells exactly the healthy
        // fabric, cycle after cycle.
        EXPECT_DOUBLE_EQ(market.sliceCapacity(),
                         static_cast<double>(fm.totalSlices() -
                                             fm.faultySlices()));
        EXPECT_EQ(market.activeCustomers(), active.size());
        std::string err;
        ASSERT_TRUE(market.checkConsistency(&err))
            << "step " << step << ": " << err;
        ASSERT_TRUE(fm.checkConsistency(&err))
            << "step " << step << ": " << err;
    }
    EXPECT_GT(joined, 100);
}
