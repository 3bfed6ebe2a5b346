/**
 * @file
 * Tests for the economics library: utility functions, markets,
 * optimizers, efficiency studies, datacenter mixes, and the phase
 * study.  Simulation-backed tests use short traces to stay fast.
 */

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>

#include <gtest/gtest.h>

#include "econ/datacenter.hh"
#include "econ/efficiency.hh"
#include "econ/market.hh"
#include "econ/phases.hh"
#include "econ/utility.hh"
#include "exec/sweep.hh"

using namespace sharch;

namespace {

/** Shared simulation state across econ tests (built once). */
class EconTest : public ::testing::Test
{
  protected:
    static PerfModel &
    perf()
    {
        static PerfModel pm(4000);
        return pm;
    }

    static UtilityOptimizer &
    optimizer()
    {
        static UtilityOptimizer opt(perf(), AreaModel{});
        return opt;
    }
};

/** P(c, s) of one benchmark over the grid, Slice-major, bank-minor. */
using GridPerf = std::array<double, 72>;

/**
 * The exhaustive argmax: every grid point in scan order, the first
 * maximum wins.  The reference the frontier scan must reproduce.
 */
OptResult
exhaustivePeak(const GridPerf &perf, UtilityKind u, const Market &m,
               double budget)
{
    OptResult best;
    bool first = true;
    std::size_t i = 0;
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid()) {
            const double p = perf[i++];
            const double v = coresAffordable(m, budget, banks, s);
            const double util = utilityValue(u, v, p);
            if (first || util > best.objective) {
                first = false;
                best.banks = banks;
                best.slices = s;
                best.perf = p;
                best.objective = util;
                best.cores = v;
            }
        }
    }
    return best;
}

/** One benchmark's surface read back in grid order. */
GridPerf
gridPerf(PerfModel &pm, const std::string &bench)
{
    GridPerf perf{};
    std::size_t i = 0;
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid())
            perf[i++] = pm.performance(bench, banks, s);
    }
    return perf;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameResult(const OptResult &a, const OptResult &b)
{
    return a.banks == b.banks && a.slices == b.slices &&
           sameBits(a.perf, b.perf) &&
           sameBits(a.objective, b.objective) &&
           sameBits(a.cores, b.cores);
}

/** Every profile's surface at 2000 instructions, filled by one batch. */
class FrontierTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        std::vector<unsigned> slices;
        for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s)
            slices.push_back(s);
        perf().performanceBatch(
            exec::sweepGrid(benchmarkNames(), l2BankGrid(), slices), 2);
    }

    static PerfModel &
    perf()
    {
        static PerfModel pm(2000);
        return pm;
    }

    static UtilityOptimizer &
    optimizer()
    {
        static UtilityOptimizer opt(perf(), AreaModel{});
        return opt;
    }
};

} // namespace

TEST_F(FrontierTest, FrontierIsTheUndominatedShapesInGridOrder)
{
    const std::vector<unsigned> &grid = l2BankGrid();
    const auto slicesOf = [&](std::size_t i) {
        return static_cast<unsigned>(i / grid.size()) + 1;
    };
    const auto banksOf = [&](std::size_t i) {
        return grid[i % grid.size()];
    };
    for (const std::string &bench : benchmarkNames()) {
        const GridPerf surface = gridPerf(perf(), bench);
        std::vector<FrontierPoint> want;
        for (std::size_t i = 0; i < surface.size(); ++i) {
            bool dominated = false;
            for (std::size_t j = 0; j < surface.size(); ++j) {
                dominated |= j != i && slicesOf(j) <= slicesOf(i) &&
                             banksOf(j) <= banksOf(i) &&
                             surface[j] >= surface[i];
            }
            if (!dominated)
                want.push_back({banksOf(i), slicesOf(i), surface[i]});
        }
        const std::vector<FrontierPoint> &got = optimizer().frontier(bench);
        EXPECT_LT(got.size(), surface.size()) << bench;
        ASSERT_EQ(got.size(), want.size()) << bench;
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].banks, want[k].banks) << bench;
            EXPECT_EQ(got[k].slices, want[k].slices) << bench;
            EXPECT_TRUE(sameBits(got[k].perf, want[k].perf)) << bench;
        }
    }
}

TEST_F(FrontierTest, FrontierPeakMatchesExhaustiveArgmaxBitForBit)
{
    // Seeded markets spanning the spot market's reach, with the 0.05
    // price floor planted on either resource, times budgets across
    // eight decades: the frontier scan must return exactly the
    // exhaustive sweep's OptResult, tie-breaks included.
    std::mt19937_64 rng(20140301);
    std::uniform_real_distribution<double> logPrice(std::log(0.05),
                                                    std::log(64.0));
    std::uniform_real_distribution<double> logBudget(std::log(1e-3),
                                                     std::log(1e5));
    std::uniform_int_distribution<int> floorPick(0, 3);
    std::vector<Market> markets = allMarkets();
    while (markets.size() < 1500) {
        Market m;
        m.slicePrice = std::exp(logPrice(rng));
        m.bankPrice = std::exp(logPrice(rng));
        switch (floorPick(rng)) {
          case 0: m.slicePrice = 0.05; break;
          case 1: m.bankPrice = 0.05; break;
          default: break;
        }
        markets.push_back(m);
    }
    std::vector<double> budgets = {defaultBudget()};
    while (budgets.size() < 6)
        budgets.push_back(std::exp(logBudget(rng)));

    std::uint64_t cases = 0;
    std::uint64_t mismatches = 0;
    for (const std::string &bench : benchmarkNames()) {
        const GridPerf surface = gridPerf(perf(), bench);
        for (UtilityKind u : kAllUtilities) {
            for (const Market &m : markets) {
                for (double budget : budgets) {
                    const OptResult got =
                        optimizer().peakUtility(bench, u, m, budget);
                    const OptResult want =
                        exhaustivePeak(surface, u, m, budget);
                    ++cases;
                    if (sameResult(got, want))
                        continue;
                    if (++mismatches <= 5) {
                        ADD_FAILURE()
                            << bench << " " << utilityName(u)
                            << " prices {" << m.slicePrice << ", "
                            << m.bankPrice << "} budget " << budget
                            << ": frontier (" << got.slices << ", "
                            << got.banks << ") vs exhaustive ("
                            << want.slices << ", " << want.banks
                            << ")";
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 15u * 3u * 1500u * 6u);
    EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
}

TEST(Frontier, ExactTiesKeepTheFirstGridPoint)
{
    // A planted surface P = s + banks leaves every shape undominated,
    // and under prices {1, 1} Utility1 is fl(B / P) * P, which rounds
    // to B at most shapes: dozens of frontier shapes tie, and the
    // scan must keep the exhaustive sweep's first maximum.
    const std::string path = "test_perf_cache_ties.csv";
    {
        std::ofstream out(path);
        for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
            for (unsigned banks : l2BankGrid())
                out << "gcc,1000,1," << banks << ',' << s << ','
                    << s + banks << '\n';
        }
    }
    PerfModel pm(1000);
    pm.enableDiskCache(path);
    UtilityOptimizer opt(pm, AreaModel{});
    EXPECT_EQ(opt.frontier("gcc").size(), 72u);
    const GridPerf perf = gridPerf(pm, "gcc");
    for (UtilityKind u : kAllUtilities) {
        for (double price : {0.05, 1.0, 2.0}) {
            const Market m{"Ties", price, price};
            for (double budget : {1.0, 3.0, 10.0, 64.0, 1000.0,
                                  defaultBudget()}) {
                const OptResult got = opt.peakUtility("gcc", u, m,
                                                      budget);
                const OptResult want = exhaustivePeak(perf, u, m,
                                                      budget);
                EXPECT_TRUE(sameResult(got, want))
                    << utilityName(u) << " price " << price
                    << " budget " << budget << ": frontier ("
                    << got.slices << ", " << got.banks
                    << ") vs exhaustive (" << want.slices << ", "
                    << want.banks << ")";
            }
        }
    }
    std::filesystem::remove(path);
}

TEST(Utility, NamesAndExponents)
{
    EXPECT_STREQ(utilityName(UtilityKind::Throughput), "Utility1");
    EXPECT_STREQ(utilityName(UtilityKind::Balanced), "Utility2");
    EXPECT_STREQ(utilityName(UtilityKind::SingleStream), "Utility3");
    EXPECT_EQ(utilityExponent(UtilityKind::Throughput), 1);
    EXPECT_EQ(utilityExponent(UtilityKind::Balanced), 2);
    EXPECT_EQ(utilityExponent(UtilityKind::SingleStream), 3);
}

TEST(Utility, ClosedForms)
{
    // Table 5: U1 = v*P, U2 = sqrt(v)*P^2, U3 = cbrt(v)*P^3.
    EXPECT_DOUBLE_EQ(utilityValue(UtilityKind::Throughput, 4.0, 2.0),
                     8.0);
    EXPECT_DOUBLE_EQ(utilityValue(UtilityKind::Balanced, 4.0, 2.0),
                     2.0 * 4.0);
    EXPECT_DOUBLE_EQ(
        utilityValue(UtilityKind::SingleStream, 8.0, 2.0), 2.0 * 8.0);
}

TEST(Utility, ThroughputKindFavorsReplication)
{
    // Doubling v doubles U1 but only sqrt-scales U2 and cbrt-scales U3.
    const double p = 1.5;
    EXPECT_DOUBLE_EQ(utilityValue(UtilityKind::Throughput, 2.0, p) /
                         utilityValue(UtilityKind::Throughput, 1.0, p),
                     2.0);
    EXPECT_NEAR(utilityValue(UtilityKind::Balanced, 2.0, p) /
                    utilityValue(UtilityKind::Balanced, 1.0, p),
                std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(utilityValue(UtilityKind::SingleStream, 2.0, p) /
                    utilityValue(UtilityKind::SingleStream, 1.0, p),
                std::cbrt(2.0), 1e-12);
}

TEST(Market, PaperPriceVectors)
{
    // Equal-area anchor: 1 Slice == 128 KB == 2 banks.
    EXPECT_DOUBLE_EQ(market2().slicePrice, 2.0);
    EXPECT_DOUBLE_EQ(market2().bankPrice, 1.0);
    // Market1: Slices at 4x equal-area cost.
    EXPECT_DOUBLE_EQ(market1().slicePrice, 4.0 * market2().slicePrice);
    EXPECT_DOUBLE_EQ(market1().bankPrice, market2().bankPrice);
    // Market3: cache at 4x equal-area cost.
    EXPECT_DOUBLE_EQ(market3().bankPrice, 4.0 * market2().bankPrice);
    EXPECT_DOUBLE_EQ(market3().slicePrice, market2().slicePrice);
    EXPECT_EQ(allMarkets().size(), 3u);
}

TEST(Market, CostAndAffordability)
{
    const Market m = market2();
    EXPECT_DOUBLE_EQ(configCost(m, 4, 2), 4.0 + 4.0);
    // Equation 2: v = B / (Cc*c + Cs*s).
    EXPECT_DOUBLE_EQ(coresAffordable(m, 80.0, 4, 2), 10.0);
    EXPECT_GT(defaultBudget(), configCost(m, 128, 8));
}

TEST_F(EconTest, PeakUtilityIsArgmaxOverGrid)
{
    const Market m = market2();
    const double budget = defaultBudget();
    const OptResult best = optimizer().peakUtility(
        "gcc", UtilityKind::Balanced, m, budget);
    // No grid point may beat the reported optimum.
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid()) {
            EXPECT_LE(optimizer().utilityAt("gcc",
                                            UtilityKind::Balanced, m,
                                            budget, banks, s),
                      best.objective + 1e-9);
        }
    }
    EXPECT_GT(best.cores, 0.0);
    EXPECT_EQ(best.cacheKb(), best.banks * 64);
}

TEST_F(EconTest, PeakPerfPerAreaIsArgmax)
{
    const OptResult best = optimizer().peakPerfPerArea("hmmer", 2);
    const AreaModel &am = optimizer().areaModel();
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid()) {
            const double p = perf().performance("hmmer", banks, s);
            EXPECT_LE(p * p / am.vcoreAreaMm2(s, banks),
                      best.objective + 1e-9);
        }
    }
}

TEST_F(EconTest, HigherExponentNeverShrinksOptimalPerf)
{
    // A cubed-performance customer never prefers a slower VCore than
    // the linear customer's optimum.
    const OptResult k1 = optimizer().peakPerfPerArea("gcc", 1);
    const OptResult k3 = optimizer().peakPerfPerArea("gcc", 3);
    EXPECT_GE(k3.perf, k1.perf - 1e-12);
}

TEST_F(EconTest, ExpensiveSlicesShiftSpendingTowardCache)
{
    // Aggregate substitution effect across the suite: when Slices cost
    // 4x (Market1), customers buy no more Slices -- and when cache
    // costs 4x (Market3), no more banks -- than at area parity.
    const double budget = defaultBudget();
    unsigned slices_m1 = 0, slices_m3 = 0;
    unsigned banks_m2 = 0, banks_m3 = 0;
    for (const std::string &b : benchmarkNames()) {
        slices_m1 += optimizer()
                         .peakUtility(b, UtilityKind::Balanced,
                                      market1(), budget)
                         .slices;
        const OptResult m3r = optimizer().peakUtility(
            b, UtilityKind::Balanced, market3(), budget);
        slices_m3 += m3r.slices;
        banks_m3 += m3r.banks;
        banks_m2 += optimizer()
                        .peakUtility(b, UtilityKind::Balanced,
                                     market2(), budget)
                        .banks;
    }
    EXPECT_LE(slices_m1, slices_m3);
    EXPECT_LE(banks_m3, banks_m2);
}

TEST_F(EconTest, UtilitySurfaceCoversGrid)
{
    const auto surface = optimizer().utilitySurface(
        "bzip", UtilityKind::Throughput, market2(), defaultBudget());
    EXPECT_EQ(surface.size(),
              SimConfig::kMaxSlices * l2BankGrid().size());
    for (const SurfacePoint &p : surface)
        EXPECT_GE(p.utility, 0.0);
}

TEST_F(EconTest, EfficiencyCustomersAreComplete)
{
    EfficiencyStudy study(optimizer());
    const auto customers = study.allCustomers();
    EXPECT_EQ(customers.size(), benchmarkNames().size() * 3);
}

TEST_F(EconTest, SharingNeverLosesToFixedOnAverage)
{
    // Sharing gives every customer their optimum, so each pair gain
    // is >= 1 up to simulation noise, and the mean strictly > 1.
    EfficiencyStudy study(optimizer());
    const EfficiencyResult res = study.vsStaticFixed();
    EXPECT_FALSE(res.gains.empty());
    for (const PairGain &g : res.gains)
        EXPECT_GE(g.gain, 0.999);
    EXPECT_GT(res.meanGain, 1.0);
    EXPECT_GE(res.maxGain, res.meanGain);
}

TEST_F(EconTest, HeterogeneousIsHarderToBeatThanFixed)
{
    EfficiencyStudy study(optimizer());
    const double vs_fixed = study.vsStaticFixed().meanGain;
    const double vs_hetero = study.vsHeterogeneous().meanGain;
    // Three specialized core types serve customers at least as well
    // as one compromise design.
    EXPECT_LE(vs_hetero, vs_fixed + 0.05);
    EXPECT_GE(vs_hetero, 1.0);
}

TEST_F(EconTest, DatacenterMixPrefersItsOwnCoreType)
{
    const DatacenterResult res = datacenterStudy(
        optimizer(), "hmmer", "gobmk", {0.0, 1.0}, 11);
    EXPECT_EQ(res.points.size(), 2u * 11u);

    // Economics of Figure 17: an all-B (gobmk) datacenter does at
    // least as well on all-B-optimal silicon as on all-A-optimal
    // silicon, and vice versa -- strictly so when the two core types
    // differ.  (At test scale the derived optima can coincide, in
    // which case the utilities tie.)
    auto utility_at = [&](double mix, double frac) {
        for (const MixPoint &pt : res.points) {
            if (std::abs(pt.appAMix - mix) < 1e-9 &&
                std::abs(pt.bigCoreAreaFrac - frac) < 1e-9) {
                return pt.utilityPerArea;
            }
        }
        ADD_FAILURE() << "missing point";
        return 0.0;
    };
    EXPECT_GE(utility_at(0.0, 1.0), utility_at(0.0, 0.0) - 1e-9);
    EXPECT_GE(utility_at(1.0, 0.0), utility_at(1.0, 1.0) - 1e-9);
    const bool distinct = res.big.banks != res.small.banks ||
                          res.big.slices != res.small.slices;
    if (distinct) {
        EXPECT_GE(res.optimalBigFrac(0.0) + 1e-9,
                  res.optimalBigFrac(1.0));
    }
}

TEST_F(EconTest, DatacenterUtilityPositive)
{
    const DatacenterResult res = datacenterStudy(
        optimizer(), "hmmer", "gobmk", {0.5}, 5);
    for (const MixPoint &p : res.points) {
        EXPECT_GT(p.utilityPerArea, 0.0);
        EXPECT_GE(p.bigCoreAreaFrac, 0.0);
        EXPECT_LE(p.bigCoreAreaFrac, 1.0);
    }
}

TEST_F(EconTest, PhaseStudyStructure)
{
    const PhaseStudyResult res = phaseStudy(optimizer());
    EXPECT_EQ(res.phases.size(), 10u);
    ASSERT_EQ(res.rows.size(), 3u);
    for (const PhaseStudyRow &row : res.rows) {
        EXPECT_EQ(row.perPhase.size(), 10u);
        EXPECT_GT(row.dynamicGme, 0.0);
        EXPECT_GT(row.staticGme, 0.0);
        // The dynamic schedule includes every phase's optimum, so
        // without reconfiguration costs it would dominate; with them
        // it may only lose a little.
        EXPECT_GT(row.gain, -0.10);
    }
    EXPECT_EQ(res.rows[0].metricExponent, 1);
    EXPECT_EQ(res.rows[2].metricExponent, 3);
}

TEST_F(EconTest, PhaseGainGrowsWithExponent)
{
    const PhaseStudyResult res = phaseStudy(optimizer());
    EXPECT_LE(res.rows[0].gain, res.rows[2].gain + 0.02);
}
