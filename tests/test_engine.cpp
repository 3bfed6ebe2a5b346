/**
 * @file
 * Allocation-engine suite: the event queue's determinism, the
 * sharch-state-v1 checkpoint contract (snapshot -> restore ->
 * snapshot is byte-identical; tampered documents are rejected with
 * actionable errors and leave the engine untouched), checkpoint /
 * resume equivalence with an uninterrupted run, CustomerId handle
 * stability, and the sharch-serve request protocol.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "area/area_model.hh"
#include "common/json.hh"
#include "core/perf_model.hh"
#include "econ/market.hh"
#include "engine/allocation_engine.hh"
#include "engine/serve_session.hh"
#include "trace/profile.hh"

using namespace sharch;
using engine::AllocationEngine;
using engine::EngineConfig;

namespace {

/** Shared tiny surface: tests that never bid stay simulation-free. */
class EngineTest : public ::testing::Test
{
  protected:
    EngineTest() : pm_(2000, 1), opt_(pm_, am_) {}

    AllocationEngine
    makeEngine()
    {
        return AllocationEngine(opt_, EngineConfig{});
    }

    /** Fabric-only arrival (budget 0): no market, no simulation. */
    static engine::Event
    arrive(Cycles at, const std::string &tenant, unsigned slices,
           unsigned banks)
    {
        return engine::tenantArrive(at, tenant, "",
                                    UtilityKind::Throughput, 0.0,
                                    slices, banks);
    }

    PerfModel pm_;
    AreaModel am_;
    UtilityOptimizer opt_;
};

TEST(Json, ParsedDocumentReEmitsItsBytes)
{
    const std::string doc =
        "{\"a\":0.1,\"b\":[1,2.5e-3,-7],\"c\":\"x\\ny\","
        "\"d\":{\"e\":true,\"f\":null}}";
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(doc, &v, &err)) << err;
    EXPECT_EQ(v.dump(), doc);
}

TEST(Json, TruncationNamesTheOffendingOffset)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\":1", &v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
}

TEST(Json, IntegersStayExactWhereDoublesWouldRound)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(
        json::parse("{\"big\":18446744073709551615}", &v, &err));
    std::uint64_t big = 0;
    ASSERT_TRUE(v.get("big")->asU64(&big));
    EXPECT_EQ(big, 18446744073709551615ull);
}

TEST_F(EngineTest, QueueOrdersByCycleThenPostingOrder)
{
    AllocationEngine e = makeEngine();
    // Posted out of cycle order; same-cycle ties resolve by posting
    // order (b before c).
    e.post(arrive(50, "late", 2, 2));
    e.post(arrive(10, "b", 2, 2));
    e.post(arrive(10, "c", 2, 2));
    e.run();
    ASSERT_EQ(e.leases().size(), 3u);
    ASSERT_EQ(e.stats().admitted, 3u);
    // Lease ids are allocation order, so they encode dispatch order.
    auto it = e.leases().begin();
    EXPECT_EQ(it->second.tenant, "b");
    ++it;
    EXPECT_EQ(it->second.tenant, "c");
    ++it;
    EXPECT_EQ(it->second.tenant, "late");
    EXPECT_EQ(e.now(), 50u);
}

TEST_F(EngineTest, RejectsWhatTheFabricCannotPlace)
{
    AllocationEngine e = makeEngine();
    // 8x8 chip: a row holds 8 Slices; 9 contiguous never fit.
    const engine::EventOutcome out =
        e.execute(arrive(0, "too-big", 9, 0));
    EXPECT_FALSE(out.applied);
    EXPECT_NE(out.detail.find("no room"), std::string::npos);
    EXPECT_EQ(e.stats().rejected, 1u);
    EXPECT_TRUE(e.leases().empty());
}

TEST_F(EngineTest, RejectsBiddersWithUnknownBenchmarks)
{
    // The optimizer can only price builtin profiles; admitting an
    // unknown one would abort at the next auction epoch.
    AllocationEngine e = makeEngine();
    const engine::EventOutcome out = e.execute(engine::tenantArrive(
        0, "mystery", "no-such-profile", UtilityKind::Throughput,
        25.0, 1, 1));
    EXPECT_FALSE(out.applied);
    EXPECT_NE(out.detail.find("unknown benchmark"),
              std::string::npos);
    EXPECT_EQ(e.stats().rejected, 1u);
    EXPECT_TRUE(e.market().customers().empty());
}

TEST_F(EngineTest, SnapshotRestoreSnapshotIsByteIdentical)
{
    AllocationEngine e = makeEngine();
    e.post(arrive(0, "alpha", 4, 8));
    e.post(arrive(10, "beta", 6, 4));
    e.post(engine::faultStrike(20, fault::FaultKind::Slice,
                               Coord{1, 0}));
    e.post(engine::tenantDepart(30, "beta"));
    // A still-pending future event must survive the round trip too.
    e.post(arrive(1000, "future", 2, 2));
    e.runUntil(500);
    ASSERT_EQ(e.pendingEvents(), 1u);

    const std::string s1 = e.saveState();
    AllocationEngine restored = makeEngine();
    std::string err;
    ASSERT_TRUE(restored.restoreState(s1, &err)) << err;
    EXPECT_EQ(restored.saveState(), s1);

    // And the restored engine is live, not a husk: the pending event
    // still fires.
    restored.run();
    EXPECT_EQ(restored.stats().processed, 5u);
}

TEST_F(EngineTest, RestoreRejectsTamperedStateAndStaysUntouched)
{
    AllocationEngine e = makeEngine();
    e.execute(arrive(0, "alpha", 4, 4));
    const std::string good = e.saveState();

    std::string err;

    // Truncation: the JSON layer names the first bad byte.
    EXPECT_FALSE(e.restoreState(
        good.substr(0, good.size() - 10), &err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;

    // Wrong schema version.
    std::string wrongSchema = good;
    wrongSchema.replace(wrongSchema.find("sharch-state-v1"),
                        std::string("sharch-state-v1").size(),
                        "sharch-state-v9");
    EXPECT_FALSE(e.restoreState(wrongSchema, &err));
    EXPECT_NE(err.find("unsupported schema"), std::string::npos)
        << err;

    // A negative clock is not a cycle count.
    std::string badClock = good;
    const std::size_t at = badClock.find("\"clock\":");
    badClock.insert(at + std::string("\"clock\":").size(), "-");
    EXPECT_FALSE(e.restoreState(badClock, &err));
    EXPECT_NE(err.find("clock"), std::string::npos) << err;

    // Every rejection left the engine byte-identical.
    EXPECT_EQ(e.saveState(), good);
}

TEST_F(EngineTest, RestoreRejectsDoubleClaimedSlices)
{
    AllocationEngine e = makeEngine();
    e.execute(arrive(0, "alpha", 4, 0)); // row 0, cols 0..3
    e.execute(arrive(0, "beta", 4, 0));  // row 0, cols 4..7
    const std::string good = e.saveState();

    // Slide beta's run onto alpha's: the occupancy check must fire.
    std::string overlapped = good;
    const std::size_t at = overlapped.find("\"col\":4");
    ASSERT_NE(at, std::string::npos);
    overlapped.replace(at, 7, "\"col\":0");
    std::string err;
    EXPECT_FALSE(e.restoreState(overlapped, &err));
    EXPECT_NE(err.find("claimed twice"), std::string::npos) << err;
    EXPECT_EQ(e.saveState(), good);
}

TEST_F(EngineTest, RestoreRejectsLeaseWithoutBackingAllocation)
{
    AllocationEngine e = makeEngine();
    e.execute(arrive(0, "alpha", 2, 2));
    std::string state = e.saveState();
    // Point the lease at an allocation id the fabric never issued.
    const std::size_t leases = state.find("\"leases\":");
    const std::size_t at = state.find("\"id\":1", leases);
    ASSERT_NE(at, std::string::npos);
    state.replace(at, 6, "\"id\":7");
    std::string err;
    EXPECT_FALSE(e.restoreState(state, &err));
    EXPECT_NE(err.find("no fabric allocation"), std::string::npos)
        << err;
}

TEST_F(EngineTest, CheckpointResumeMatchesUninterruptedRun)
{
    // A fabric-churn script with a mid-stream checkpoint: arrivals,
    // a fault under a live VCore, departures, a heal.
    const auto script = [](AllocationEngine &e) {
        e.post(arrive(0, "a", 4, 8));
        e.post(arrive(10, "b", 6, 4));
        e.post(engine::faultStrike(20, fault::FaultKind::Slice,
                                   Coord{1, 0}));
        e.post(engine::checkpoint(30, "mid"));
        e.post(engine::tenantDepart(40, "b"));
        e.post(engine::healFault(50, fault::FaultKind::Slice,
                                 Coord{1, 0}));
        e.post(arrive(60, "c", 8, 2));
    };

    AllocationEngine full = makeEngine();
    script(full);
    full.run();
    ASSERT_FALSE(full.lastCheckpoint().empty());
    EXPECT_EQ(full.lastCheckpointLabel(), "mid");

    AllocationEngine resumed = makeEngine();
    std::string err;
    ASSERT_TRUE(resumed.restoreState(full.lastCheckpoint(), &err))
        << err;
    resumed.run();

    EXPECT_EQ(study::renderJson(resumed.finalReport()),
              study::renderJson(full.finalReport()));
    EXPECT_EQ(resumed.saveState(), full.saveState());
}

TEST_F(EngineTest, MarketRunCheckpointResumeIsByteIdentical)
{
    // The economic path: bidding tenants and auction epochs on both
    // sides of the checkpoint (this one does simulate the surface).
    const std::string bench = benchmarkNames().front();
    const double budget = defaultBudget();
    const auto script = [&](AllocationEngine &e) {
        e.post(engine::tenantArrive(0, "t1", bench,
                                    UtilityKind::Throughput, budget,
                                    4, 8));
        e.post(engine::tenantArrive(0, "t2", bench,
                                    UtilityKind::SingleStream,
                                    budget, 2, 4));
        e.post(engine::auctionEpoch(10));
        e.post(engine::checkpoint(20, "mid"));
        e.post(engine::tenantDepart(30, "t2"));
        e.post(engine::auctionEpoch(40));
    };

    AllocationEngine full = makeEngine();
    script(full);
    full.run();

    AllocationEngine resumed = makeEngine();
    std::string err;
    ASSERT_TRUE(resumed.restoreState(full.lastCheckpoint(), &err))
        << err;
    resumed.run();

    EXPECT_EQ(resumed.saveState(), full.saveState());
    EXPECT_EQ(study::renderJson(resumed.finalReport()),
              study::renderJson(full.finalReport()));
    EXPECT_GT(full.stats().epochs, 0u);
}

TEST_F(EngineTest, CustomerIdsStayValidAcrossDepartures)
{
    AllocationEngine e = makeEngine();
    const double budget = defaultBudget();
    const std::string bench = benchmarkNames().front();
    e.execute(engine::tenantArrive(0, "one", bench,
                                   UtilityKind::Throughput, budget,
                                   2, 2));
    e.execute(engine::tenantArrive(0, "two", bench,
                                   UtilityKind::Balanced, budget, 2,
                                   2));
    e.execute(engine::tenantDepart(1, "one"));
    e.execute(engine::tenantArrive(2, "three", bench,
                                   UtilityKind::SingleStream, budget,
                                   2, 2));
    // Departure deactivates; it never erases, so ids are stable.
    const SpotMarket &m = e.market();
    ASSERT_EQ(m.customers().size(), 3u);
    EXPECT_EQ(m.customer(0).name, "one");
    EXPECT_FALSE(m.customer(0).active);
    EXPECT_EQ(m.customer(1).name, "two");
    EXPECT_TRUE(m.customer(1).active);
    EXPECT_EQ(m.customer(2).name, "three");
    EXPECT_EQ(m.activeCustomers(), 2u);
}

TEST_F(EngineTest, ReshapeGrowsAndShrinksALiveLease)
{
    AllocationEngine e = makeEngine();
    const engine::EventOutcome out = e.execute(arrive(0, "a", 2, 2));
    ASSERT_TRUE(out.applied);
    const auto cost = e.reshapeLease(out.lease, 4, 4);
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(e.leases().at(out.lease).slices, 4u);
    EXPECT_EQ(e.leases().at(out.lease).banks, 4u);
    EXPECT_FALSE(e.reshapeLease(999, 1, 1).has_value());
}

TEST_F(EngineTest, FailedReshapeKeepsLeaseAndFabricInStep)
{
    // a's Slices could grow into x's old tiles, but no bank is free:
    // the reshape fails and must leave the lease and fabric agreeing.
    AllocationEngine e = makeEngine();
    const engine::EventOutcome a = e.execute(arrive(0, "a", 2, 2));
    ASSERT_TRUE(a.applied);
    ASSERT_TRUE(e.execute(arrive(0, "x", 6, 0)).applied);
    for (int i = 0; i < 15; ++i) {
        ASSERT_TRUE(
            e.execute(arrive(0, "f" + std::to_string(i), 1, 2)).applied);
    }
    ASSERT_TRUE(e.execute(engine::tenantDepart(1, "x")).applied);

    EXPECT_FALSE(e.reshapeLease(a.lease, 4, 4).has_value());
    EXPECT_EQ(e.leases().at(a.lease).slices, 2u);
    std::string err;
    EXPECT_TRUE(e.checkInvariants(&err)) << err;
}

TEST_F(EngineTest, HealCreditsOnlyCapacityItsFaultCharged)
{
    // A 2x2 chip sells 2 Slices and 2 banks.  Each resource's second
    // fault would empty the market, so it charges nothing -- and its
    // heal must credit nothing either.
    EngineConfig cfg;
    cfg.fabricWidth = 2;
    cfg.fabricHeight = 2;
    AllocationEngine e(opt_, cfg);
    Cycles at = 10;
    for (fault::FaultKind kind :
         {fault::FaultKind::Slice, fault::FaultKind::Bank}) {
        const int row = kind == fault::FaultKind::Slice ? 0 : 1;
        for (int x = 0; x < 2; ++x)
            e.post(engine::faultStrike(at++, kind, Coord{x, row}));
        for (int x = 0; x < 2; ++x)
            e.post(engine::healFault(at++, kind, Coord{x, row}));
    }
    e.run();
    EXPECT_EQ(e.stats().faults, 4u);
    EXPECT_EQ(e.stats().heals, 4u);
    EXPECT_DOUBLE_EQ(e.market().sliceCapacity(), 2.0);
    EXPECT_DOUBLE_EQ(e.market().bankCapacity(), 2.0);
    std::string err;
    EXPECT_TRUE(e.checkInvariants(&err)) << err;
}

// --- The sharch-serve protocol -----------------------------------

TEST_F(EngineTest, ServeSessionAnswersTheSevenOps)
{
    AllocationEngine e = makeEngine();
    engine::ServeSession s(e);

    const std::string a = s.handle(
        "{\"op\":\"allocate\",\"tenant\":\"web\",\"slices\":4,"
        "\"banks\":8}");
    EXPECT_NE(a.find("\"ok\":true"), std::string::npos) << a;
    EXPECT_NE(a.find("\"applied\":true"), std::string::npos) << a;
    EXPECT_NE(a.find("\"lease\":1"), std::string::npos) << a;

    const std::string r = s.handle(
        "{\"op\":\"reshape\",\"lease\":1,\"slices\":2,\"banks\":4}");
    EXPECT_NE(r.find("\"applied\":true"), std::string::npos) << r;

    const std::string st = s.handle("{\"op\":\"stats\"}");
    EXPECT_NE(st.find("\"admitted\":1"), std::string::npos) << st;
    EXPECT_NE(st.find("\"leases\":1"), std::string::npos) << st;

    const std::string snap = s.handle("{\"op\":\"snapshot\"}");
    EXPECT_NE(snap.find("\"state\":{\"schema\":\"sharch-state-v1\""),
              std::string::npos)
        << snap.substr(0, 120);

    const std::string rel =
        s.handle("{\"op\":\"release\",\"tenant\":\"web\"}");
    EXPECT_NE(rel.find("\"applied\":true"), std::string::npos)
        << rel;

    const std::string bad = s.handle("{\"op\":\"evaporate\"}");
    EXPECT_NE(bad.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(bad.find("unknown op"), std::string::npos);

    const std::string garbage = s.handle("not json at all");
    EXPECT_NE(garbage.find("\"ok\":false"), std::string::npos);
    EXPECT_EQ(s.requestsHandled(), 7u);
}

TEST_F(EngineTest, ServeSnapshotAndRestoreViaFilesRoundTrip)
{
    const std::string dir = ::testing::TempDir();
    const std::string p1 = dir + "/sharch_serve_s1.json";
    const std::string p2 = dir + "/sharch_serve_s2.json";

    AllocationEngine e1 = makeEngine();
    engine::ServeSession s1(e1);
    s1.handle("{\"op\":\"allocate\",\"tenant\":\"a\",\"slices\":4,"
              "\"banks\":4}");
    const std::string w = s1.handle(
        "{\"op\":\"snapshot\",\"path\":\"" + p1 + "\"}");
    ASSERT_NE(w.find("\"ok\":true"), std::string::npos) << w;

    // A second session restores the file and must re-emit the exact
    // same bytes -- the CI serve-smoke step diffs these two files.
    AllocationEngine e2 = makeEngine();
    engine::ServeSession s2(e2);
    const std::string r = s2.handle(
        "{\"op\":\"restore\",\"path\":\"" + p1 + "\"}");
    ASSERT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    s2.handle("{\"op\":\"snapshot\",\"path\":\"" + p2 + "\"}");

    std::ifstream f1(p1), f2(p2);
    std::stringstream b1, b2;
    b1 << f1.rdbuf();
    b2 << f2.rdbuf();
    EXPECT_EQ(b1.str(), b2.str());
    EXPECT_FALSE(b1.str().empty());
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST_F(EngineTest, ServeRestoreRejectsTamperWithActionableError)
{
    AllocationEngine e = makeEngine();
    engine::ServeSession s(e);
    const std::string r = s.handle(
        "{\"op\":\"restore\",\"state\":{\"schema\":\"wrong\"}}");
    EXPECT_NE(r.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(r.find("unsupported schema"), std::string::npos) << r;
}

TEST_F(EngineTest, ServeReportOpRendersTheFinalReportInline)
{
    AllocationEngine e = makeEngine();
    engine::ServeSession s(e);
    s.handle("{\"op\":\"allocate\",\"tenant\":\"a\",\"slices\":4,"
             "\"banks\":2}");
    const std::string r = s.handle("{\"op\":\"report\"}");
    EXPECT_NE(r.find("\"ok\":true"), std::string::npos) << r;
    EXPECT_NE(r.find("\"schema\":\"sharch-report-v1\""),
              std::string::npos)
        << r.substr(0, 120);
    // One response per line: the spliced report must not smuggle a
    // newline into the reply.
    EXPECT_EQ(r.find('\n'), std::string::npos);
    // The reply bytes are the determinism anchor the chaos harness
    // diffs, so two sessions with the same history must agree.
    AllocationEngine e2 = makeEngine();
    engine::ServeSession s2(e2);
    s2.handle("{\"op\":\"allocate\",\"tenant\":\"a\",\"slices\":4,"
              "\"banks\":2}");
    EXPECT_EQ(s2.handle("{\"op\":\"report\"}"), r);
}

TEST_F(EngineTest, ServeRefusesOversizedRequestsWithPosition)
{
    AllocationEngine e = makeEngine();
    engine::ServeSession s(e);
    std::string huge = "{\"op\":\"stats\",\"pad\":\"";
    huge.append(engine::kMaxRequestBytes, 'x');
    huge += "\"}";
    const std::string r = s.handle(huge);
    EXPECT_NE(r.find("\"ok\":false"), std::string::npos) << r;
    EXPECT_NE(r.find(std::to_string(huge.size()) + " bytes"),
              std::string::npos)
        << r;
    EXPECT_NE(r.find(std::to_string(engine::kMaxRequestBytes)),
              std::string::npos)
        << r;
    // The session survives and the next request is served normally.
    const std::string st = s.handle("{\"op\":\"stats\"}");
    EXPECT_NE(st.find("\"ok\":true"), std::string::npos) << st;
}

TEST_F(EngineTest, MalformedRequestCorpusNeverKillsTheSession)
{
    AllocationEngine e = makeEngine();
    engine::ServeSession s(e);

    // 64 levels of array nesting breaches json::kMaxDepth.
    std::string deep;
    deep.append(100, '[');
    deep.append(100, ']');

    const std::vector<std::string> corpus = {
        "",                      // empty after trim? (still a line)
        "not json at all",
        "{",
        "[1,2,3",
        "\"just a string\"",
        "[1,2,3]",               // valid JSON, not an object
        "{\"no\":\"op\"}",
        "{\"op\":42}",
        "{\"op\":\"evaporate\"}",
        "{\"op\":\"allocate\"}", // missing tenant
        "{\"op\":\"allocate\",\"tenant\":7}",
        "{\"op\":\"allocate\",\"tenant\":\"a\",\"slices\":-4}",
        "{\"op\":\"allocate\",\"tenant\":\"a\",\"budget\":\"x\"}",
        "{\"op\":\"allocate\",\"tenant\":\"a\","
        "\"utility\":\"nope\"}",
        "{\"op\":\"reshape\"}",
        "{\"op\":\"reshape\",\"lease\":\"one\"}",
        "{\"op\":\"release\"}",
        "{\"op\":\"price\",\"at\":-1}",
        "{\"op\":\"snapshot\",\"path\":123}",
        "{\"op\":\"restore\"}",
        "{\"op\":\"restore\",\"state\":{},\"path\":\"x\"}",
        "{\"op\":\"restore\",\"state\":{\"schema\":\"bogus\"}}",
        "{\"op\":\"restore\",\"path\":\"/nonexistent/nope\"}",
        "{\"op\":\"stats\",\"op\":\"stats\"",  // torn duplicate key
        deep,
        "{\"a\":1e99999}",
        // Raw control byte inside a string literal (must be escaped
        // in valid JSON).
        std::string("{\"op\":\"stats\",\"x\":\"\x01\"}"),
    };
    for (const std::string &line : corpus) {
        const std::string reply = s.handle(line);
        EXPECT_EQ(reply.find("{\"ok\":false"), 0u)
            << "request: " << line.substr(0, 60)
            << "\nreply: " << reply.substr(0, 120);
    }
    // Nothing leaked into the engine: still pristine and serving.
    EXPECT_EQ(e.stats().processed, 0u);
    EXPECT_EQ(e.leases().size(), 0u);
    const std::string ok = s.handle(
        "{\"op\":\"allocate\",\"tenant\":\"a\",\"slices\":2}");
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
    std::string err;
    EXPECT_TRUE(e.checkInvariants(&err)) << err;
}

TEST_F(EngineTest, ReshapeEventRoundTripsThroughJson)
{
    const engine::Event e = engine::reshapeEvent(42, 7, 6, 3);
    const json::Value v = engine::eventToJson(e, 11);
    engine::Event back;
    std::uint64_t seq = 0;
    std::string err;
    ASSERT_TRUE(engine::eventFromJson(v, &back, &seq, &err)) << err;
    EXPECT_EQ(seq, 11u);
    EXPECT_EQ(back.kind, engine::EventKind::Reshape);
    EXPECT_EQ(back.at, 42u);
    EXPECT_EQ(back.lease, 7u);
    EXPECT_EQ(back.slices, 6u);
    EXPECT_EQ(back.banks, 3u);
}

TEST(Json, DepthBeyondTheLimitFailsWithPosition)
{
    std::string deep;
    deep.append(json::kMaxDepth + 1, '[');
    deep.append(json::kMaxDepth + 1, ']');
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(deep, &v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
    EXPECT_NE(err.find(std::to_string(json::kMaxDepth)),
              std::string::npos)
        << err;
    // Exactly at the limit still parses.
    std::string ok;
    ok.append(json::kMaxDepth, '[');
    ok.append(json::kMaxDepth, ']');
    EXPECT_TRUE(json::parse(ok, &v, &err)) << err;
}

TEST(Json, DocumentBeyondTheSizeLimitFailsWithPosition)
{
    std::string big = "[";
    big.resize(json::kMaxDocumentBytes + 1, ' ');
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse(big, &v, &err));
    EXPECT_NE(err.find("offset 0"), std::string::npos) << err;
    EXPECT_NE(err.find(std::to_string(json::kMaxDocumentBytes)),
              std::string::npos)
        << err;
}

} // namespace
