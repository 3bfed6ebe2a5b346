#include "econ/optimizer.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace sharch {

UtilityOptimizer::UtilityOptimizer(PerfModel &perf, const AreaModel &area)
    : perf_(&perf), area_(area)
{
}

OptResult
UtilityOptimizer::peakPerfPerArea(const BenchmarkProfile &profile, int k)
{
    SHARCH_ASSERT(k >= 1 && k <= 3, "metric exponent must be 1..3");
    OptResult best;
    bool first = true;
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid()) {
            const double p = perf_->performance(profile, banks, s);
            const double area = area_.vcoreAreaMm2(s, banks);
            const double metric = std::pow(p, k) / area;
            if (first || metric > best.objective) {
                first = false;
                best.banks = banks;
                best.slices = s;
                best.perf = p;
                best.objective = metric;
            }
        }
    }
    return best;
}

OptResult
UtilityOptimizer::peakPerfPerArea(const std::string &benchmark, int k)
{
    return peakPerfPerArea(profileFor(benchmark), k);
}

double
UtilityOptimizer::utilityAt(const std::string &benchmark, UtilityKind u,
                            const Market &market, double budget,
                            unsigned banks, unsigned slices)
{
    const double p = perf_->performance(benchmark, banks, slices);
    const double v = coresAffordable(market, budget, banks, slices);
    return utilityValue(u, v, p);
}

const std::vector<FrontierPoint> &
UtilityOptimizer::frontier(const std::string &benchmark)
{
    {
        std::lock_guard<std::mutex> lock(frontierMutex_);
        auto it = frontiers_.find(benchmark);
        if (it != frontiers_.end())
            return it->second;
    }
    // Build outside the lock: the surface is memoized, so a racing
    // duplicate reads the same values and the loser's copy is
    // discarded.
    std::vector<FrontierPoint> grid;
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid())
            grid.push_back(FrontierPoint{
                banks, s, perf_->performance(benchmark, banks, s)});
    }
    // Every point with <= Slices and <= banks comes earlier in grid
    // order, so only the prefix can dominate a point.
    std::vector<FrontierPoint> rows;
    for (auto pt = grid.begin(); pt != grid.end(); ++pt) {
        const bool dominated =
            std::any_of(grid.begin(), pt, [&](const FrontierPoint &o) {
                return o.slices <= pt->slices && o.banks <= pt->banks &&
                       o.perf >= pt->perf;
            });
        if (!dominated)
            rows.push_back(*pt);
    }
    std::lock_guard<std::mutex> lock(frontierMutex_);
    return frontiers_.try_emplace(benchmark, std::move(rows))
        .first->second;
}

OptResult
UtilityOptimizer::peakUtility(const std::string &benchmark, UtilityKind u,
                              const Market &market, double budget)
{
    SHARCH_ASSERT(market.slicePrice >= 0.0 && market.bankPrice >= 0.0,
                  "prices must be non-negative");
    // A dominated shape costs no less and performs no better than the
    // shape dominating it, which comes earlier in grid order, so it
    // can never be the first maximum of the exhaustive sweep.
    OptResult best;
    bool first = true;
    for (const FrontierPoint &pt : frontier(benchmark)) {
        const double v =
            coresAffordable(market, budget, pt.banks, pt.slices);
        const double util = utilityValue(u, v, pt.perf);
        if (first || util > best.objective) {
            first = false;
            best.banks = pt.banks;
            best.slices = pt.slices;
            best.perf = pt.perf;
            best.objective = util;
            best.cores = v;
        }
    }
    return best;
}

std::vector<SurfacePoint>
UtilityOptimizer::utilitySurface(const std::string &benchmark,
                                 UtilityKind u, const Market &market,
                                 double budget)
{
    std::vector<SurfacePoint> points;
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s) {
        for (unsigned banks : l2BankGrid()) {
            SurfacePoint pt;
            pt.banks = banks;
            pt.slices = s;
            pt.utility =
                utilityAt(benchmark, u, market, budget, banks, s);
            points.push_back(pt);
        }
    }
    return points;
}

} // namespace sharch
