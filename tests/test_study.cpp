/**
 * @file
 * The study engine: registry contents, renderer agreement, the
 * JSON determinism contract across worker-thread counts, and golden
 * report stability.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/perf_model.hh"
#include "study/engine.hh"
#include "study/registry.hh"
#include "study/report.hh"
#include "study/surface.hh"

using namespace sharch;
using namespace sharch::study;

namespace {

/** Every figure/table harness ported onto the registry, sorted. */
const std::vector<std::string> kExpectedStudies = {
    "ablate_son", "datacenter_churn", "datacenter_churn_short",
    "fault_degradation", "fig10_11",  "fig12",
    "fig13",      "fig14",            "fig15",
    "fig16",      "fig17",            "fleet_scale",
    "journal_recovery", "sampling_accuracy", "serve_replay",
    "sim_speed",  "tab1",             "tab4",
    "tab6",       "tab7",
};

TEST(StudyRegistry, ListsEveryPortedHarness)
{
    std::vector<std::string> names;
    for (const Study *s : StudyRegistry::instance().all())
        names.push_back(s->name());
    EXPECT_EQ(names, kExpectedStudies);
}

TEST(StudyRegistry, FindAndMatch)
{
    EXPECT_NE(StudyRegistry::instance().find("fig13"), nullptr);
    EXPECT_EQ(StudyRegistry::instance().find("fig99"), nullptr);

    std::vector<std::string> figs;
    for (const Study *s : StudyRegistry::instance().match("fig*"))
        figs.push_back(s->name());
    EXPECT_EQ(figs,
              (std::vector<std::string>{"fig10_11", "fig12", "fig13",
                                        "fig14", "fig15", "fig16",
                                        "fig17"}));
    EXPECT_EQ(StudyRegistry::instance().match("*").size(),
              kExpectedStudies.size());
}

TEST(StudyRegistry, GlobMatch)
{
    EXPECT_TRUE(globMatch("fig13", "fig13"));
    EXPECT_FALSE(globMatch("fig13", "fig12"));
    EXPECT_TRUE(globMatch("fig*", "fig10_11"));
    EXPECT_FALSE(globMatch("fig*", "tab1"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("?ab1", "tab1"));
    EXPECT_FALSE(globMatch("?ab1", "ab1"));
    // Star backtracking: the first '1' must not commit the match.
    EXPECT_TRUE(globMatch("f*3", "fig13"));
    EXPECT_TRUE(globMatch("*_*", "fig10_11"));
    EXPECT_FALSE(globMatch("*_*", "tab1"));
    EXPECT_FALSE(globMatch("fig", "fig13"));
}

/** A fixed two-table report for exercising the renderers. */
Report
sampleReport()
{
    Report r;
    r.id = "sample";
    r.title = "Sample";
    r.addMeta("seed", 7);
    Table &t = r.addTable("t", "first");
    t.col("name", Value::Kind::Text)
        .col("n", Value::Kind::Integer)
        .col("x", Value::Kind::Real, 3);
    t.addRow({"alpha", 1, 0.5});
    t.addRow({"bravo", 2, 1.25});
    t.addRow({"charlie", 3, 2.0});
    Table &u = r.addTable("u", "second");
    u.col("flag", Value::Kind::Boolean);
    u.addRow({true});
    u.addRow({false});
    return r;
}

/** Positions of @p needles in @p text must be strictly increasing. */
void
expectOrdered(const std::string &text,
              const std::vector<std::string> &needles)
{
    std::size_t last = 0;
    for (const std::string &n : needles) {
        const std::size_t at = text.find(n, last);
        ASSERT_NE(at, std::string::npos)
            << "'" << n << "' missing (or out of order) in:\n"
            << text;
        last = at + n.size();
    }
}

TEST(Renderers, RowOrderIdenticalAcrossFormats)
{
    const Report r = sampleReport();
    const std::vector<std::string> order = {
        "alpha", "bravo", "charlie", "true", "false"};
    expectOrdered(renderText(r), order);
    expectOrdered(renderCsv(r), order);
    expectOrdered(renderJson(r), order);
}

TEST(Renderers, CanonicalValues)
{
    EXPECT_EQ(Value(42).toCanonical(), "42");
    EXPECT_EQ(Value(-3).toCanonical(), "-3");
    EXPECT_EQ(Value(true).toCanonical(), "true");
    EXPECT_EQ(Value(0.5).toCanonical(), "0.5");
    EXPECT_EQ(Value("hi").toJson(), "\"hi\"");
    EXPECT_EQ(Value("a\"b\\c\n").toJson(), "\"a\\\"b\\\\c\\n\"");
    // %.17g round-trips; equal doubles must render equally.
    EXPECT_EQ(Value(1.0 / 3.0).toCanonical(),
              Value(1.0 / 3.0).toCanonical());
}

TEST(Renderers, JsonOmitsVolatileRunInfo)
{
    Report r = sampleReport();
    r.addRunInfo("threads", 4);
    r.addRunInfo("elapsed_s", 1.25);
    const std::string json = renderJson(r);
    const std::string csv = renderCsv(r);
    EXPECT_EQ(json.find("threads"), std::string::npos);
    EXPECT_EQ(json.find("elapsed_s"), std::string::npos);
    EXPECT_EQ(csv.find("elapsed_s"), std::string::npos);
    // ...while the human-facing text renderer shows them.
    EXPECT_NE(renderText(r).find("threads"), std::string::npos);
}

TEST(StudyEngine, JsonBitIdenticalAcrossThreadCounts)
{
    Study *s = StudyRegistry::instance().find("fig12");
    ASSERT_NE(s, nullptr);

    EngineOptions o;
    o.instructions = 500;
    o.seed = 1;

    o.threads = 1;
    PerfModel pm1(o.instructions, o.seed);
    const Report r1 = runStudy(*s, pm1, o);

    o.threads = 4;
    PerfModel pm4(o.instructions, o.seed);
    const Report r4 = runStudy(*s, pm4, o);

    EXPECT_EQ(renderJson(r1), renderJson(r4));
    EXPECT_EQ(renderCsv(r1), renderCsv(r4));
}

TEST(StudyEngine, GoldenTab1Report)
{
    Study *s = StudyRegistry::instance().find("tab1");
    ASSERT_NE(s, nullptr);

    EngineOptions o;
    o.instructions = 2000;
    o.seed = 1;
    o.threads = 1;
    PerfModel pm(o.instructions, o.seed);
    const Report r = runStudy(*s, pm, o);

    std::ifstream in(std::string(SHARCH_TEST_DATA_DIR) +
                     "/tab1.json");
    ASSERT_TRUE(in) << "golden tab1.json missing";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(renderJson(r), golden.str())
        << "tab1 drifted from the committed golden report; if the "
           "change is intentional, regenerate with: sharch-bench "
           "--run tab1 --instructions 2000 --seed 1 --format json";
}

TEST(StudyEngine, UnionGridConcatenatesSelectionOrder)
{
    Study *fig12 = StudyRegistry::instance().find("fig12");
    Study *fig13 = StudyRegistry::instance().find("fig13");
    ASSERT_NE(fig12, nullptr);
    ASSERT_NE(fig13, nullptr);
    const auto grid = unionGrid({fig12, fig13});
    EXPECT_EQ(grid.size(),
              fig12->grid().size() + fig13->grid().size());
}

} // namespace
