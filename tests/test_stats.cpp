/**
 * @file
 * Tests for the statistics package: counters, samples, histograms,
 * SimStats derived rates, merging, and reporting.
 */

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "stats/stats.hh"

using namespace sharch;

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Sample, TracksMeanMinMax)
{
    Sample s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(4.0);
    s.add(9.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.total(), 15.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Sample, SingleNegativeValue)
{
    Sample s;
    s.add(-3.5);
    EXPECT_DOUBLE_EQ(s.min(), -3.5);
    EXPECT_DOUBLE_EQ(s.max(), -3.5);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10.0); // [0,10) [10,20) [20,30) [30,40)
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(35.0);
    h.add(40.0);  // overflow
    h.add(-1.0);  // negative -> overflow
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.samples(), 6u);
}

TEST(SimStats, DerivedRates)
{
    SimStats s;
    s.cycles = 200;
    s.instructionsCommitted = 100;
    EXPECT_DOUBLE_EQ(s.ipc(), 0.5);
    s.branches = 50;
    s.branchMispredicts = 5;
    EXPECT_DOUBLE_EQ(s.branchMispredictRate(), 0.1);
    s.l1dAccesses = 40;
    s.l1dMisses = 10;
    EXPECT_DOUBLE_EQ(s.l1dMissRate(), 0.25);
    s.l2Accesses = 10;
    s.l2Misses = 10;
    EXPECT_DOUBLE_EQ(s.l2MissRate(), 1.0);
}

TEST(SimStats, RatesSafeWhenEmpty)
{
    const SimStats s;
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(s.branchMispredictRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.l1dMissRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.l2MissRate(), 0.0);
}

TEST(SimStats, StallAccounting)
{
    SimStats s;
    s.addStall(Stage::Fetch, 3);
    s.addStall(Stage::Fetch);
    s.addStall(Stage::Memory, 7);
    EXPECT_EQ(s.stall(Stage::Fetch), 4u);
    EXPECT_EQ(s.stall(Stage::Memory), 7u);
    EXPECT_EQ(s.stall(Stage::Commit), 0u);
}

TEST(SimStats, MergeTakesMaxCyclesAndSumsCounts)
{
    SimStats a, b;
    a.cycles = 100;
    a.instructionsCommitted = 10;
    a.loads = 4;
    a.addStall(Stage::Issue, 5);
    b.cycles = 80;
    b.instructionsCommitted = 20;
    b.loads = 6;
    b.addStall(Stage::Issue, 2);
    a.merge(b);
    EXPECT_EQ(a.cycles, 100u);
    EXPECT_EQ(a.instructionsCommitted, 30u);
    EXPECT_EQ(a.loads, 10u);
    EXPECT_EQ(a.stall(Stage::Issue), 7u);

    // merge() and the sampling arithmetic sum kCounters, so the list
    // must hold every Count between cycles and stallCycles, in
    // declaration order: a counter left out of it leaves a gap here.
    const SimStats s;
    const auto offset = [&s](const void *field) {
        return static_cast<const char *>(field) -
               reinterpret_cast<const char *>(&s);
    };
    std::ptrdiff_t next = offset(&s.cycles) + sizeof(s.cycles);
    for (Count SimStats::*c : SimStats::kCounters) {
        EXPECT_EQ(offset(&(s.*c)), next);
        next += sizeof(Count);
    }
    EXPECT_EQ(next, offset(&s.stallCycles));
}

TEST(SimStats, ReportMentionsKeyFields)
{
    SimStats s;
    s.cycles = 123;
    s.instructionsCommitted = 456;
    const std::string rep = s.report();
    EXPECT_NE(rep.find("123"), std::string::npos);
    EXPECT_NE(rep.find("456"), std::string::npos);
    EXPECT_NE(rep.find("ipc"), std::string::npos);
    EXPECT_NE(rep.find("fetch"), std::string::npos);
}

TEST(Stages, AllStagesNamed)
{
    for (int i = 0; i < static_cast<int>(Stage::NumStages); ++i) {
        const char *name = stageName(static_cast<Stage>(i));
        EXPECT_NE(name, nullptr);
        EXPECT_STRNE(name, "unknown");
    }
}

namespace {

/**
 * Every field gets a distinct prime-ish value so a swapped pair of
 * counters in toJson() cannot cancel out in the golden diff.
 */
SimStats
goldenStats()
{
    SimStats st;
    st.cycles = 1000;
    st.instructionsCommitted = 800;
    st.instructionsFetched = 900;
    st.squashedInstructions = 100;
    st.branches = 150;
    st.branchMispredicts = 15;
    st.loads = 300;
    st.stores = 200;
    st.lsqViolations = 7;
    st.l1dAccesses = 500;
    st.l1dMisses = 50;
    st.l1iAccesses = 450;
    st.l1iMisses = 9;
    st.l2Accesses = 59;
    st.l2Misses = 13;
    st.coherenceInvalidations = 3;
    st.operandRequests = 120;
    st.operandReplies = 119;
    st.operandNetworkHops = 240;
    st.operandNetworkStalls = 11;
    st.renameBroadcasts = 77;
    st.sumOperandWait = 1600;
    st.sumIssueWait = 2400;
    st.sumExecLatency = 4000;
    st.addStall(Stage::Fetch, 21);
    st.addStall(Stage::Rename, 22);
    st.addStall(Stage::Dispatch, 23);
    st.addStall(Stage::Issue, 24);
    st.addStall(Stage::Execute, 25);
    st.addStall(Stage::Memory, 26);
    st.addStall(Stage::Commit, 27);
    return st;
}

} // namespace

TEST(SimStats, ToJsonMatchesGoldenFile)
{
    // The committed golden pins both the field set and the byte-level
    // formatting: ssim --json and every study report embed this
    // document verbatim, so a silent rename or reordering here is a
    // schema break for every downstream consumer.  To regenerate
    // after an *intentional* change:
    //   build/tests/test_stats --gtest_filter=SimStats.ToJsonMatchesGoldenFile
    // and copy the "actual" line from the failure message into
    // tests/golden/simstats.json (no trailing newline).
    std::ifstream in(std::string(SHARCH_TEST_DATA_DIR) +
                     "/simstats.json");
    ASSERT_TRUE(in) << "missing tests/golden/simstats.json";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(goldenStats().toJson(), golden.str())
        << "actual: " << goldenStats().toJson();
}

TEST(SimStats, ToJsonCoversEveryField)
{
    // Completeness guard independent of the golden bytes: every
    // distinct value planted by goldenStats() must surface somewhere
    // in the document.
    const std::string doc = goldenStats().toJson();
    for (const char *needle :
         {"\"cycles\":1000", "\"instructions_committed\":800",
          "\"instructions_fetched\":900",
          "\"squashed_instructions\":100", "\"branches\":150",
          "\"branch_mispredicts\":15", "\"loads\":300",
          "\"stores\":200", "\"lsq_violations\":7",
          "\"l1d_accesses\":500", "\"l1d_misses\":50",
          "\"l1i_accesses\":450", "\"l1i_misses\":9",
          "\"l2_accesses\":59", "\"l2_misses\":13",
          "\"coherence_invalidations\":3",
          "\"operand_requests\":120", "\"operand_replies\":119",
          "\"operand_network_hops\":240",
          "\"operand_network_stalls\":11",
          "\"rename_broadcasts\":77", "\"ipc\":", "\"l1d_miss_rate\":",
          "\"l2_miss_rate\":", "\"branch_mispredict_rate\":",
          "\"avg_operand_wait\":2", "\"avg_issue_wait\":3",
          "\"avg_exec_latency\":5", "\"fetch\":21", "\"rename\":22",
          "\"dispatch\":23", "\"issue\":24", "\"execute\":25",
          "\"memory\":26", "\"commit\":27"}) {
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "missing " << needle << " in " << doc;
    }
}
