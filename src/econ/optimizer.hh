/**
 * @file
 * Exhaustive configuration search (sections 5.5-5.7).
 *
 * The paper finds optimal VCore shapes by exhaustively sweeping Slice
 * count 1..8 and L2 size 0..8 MB.  UtilityOptimizer does the same over
 * PerfModel's memoized surface for two families of objectives:
 *
 *  - performance^k / area  (Table 4; k = 1, 2, 3), and
 *  - customer utility under a market and budget (Tables 5/6,
 *    Figure 14).
 */

#ifndef SHARCH_ECON_OPTIMIZER_HH
#define SHARCH_ECON_OPTIMIZER_HH

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "area/area_model.hh"
#include "core/perf_model.hh"
#include "econ/market.hh"
#include "econ/utility.hh"

namespace sharch {

/** The winning point of a sweep. */
struct OptResult
{
    unsigned banks = 0;
    unsigned slices = 1;
    double perf = 0.0;     //!< P(c, s) at the optimum
    double objective = 0.0; //!< metric or utility value
    double cores = 0.0;    //!< v at the optimum (utility sweeps only)

    unsigned cacheKb() const { return banks * 64; }
};

/** One sampled point of a utility surface (Figure 14). */
struct SurfacePoint
{
    unsigned banks = 0;
    unsigned slices = 1;
    double utility = 0.0;
};

/**
 * One (banks, slices) grid point of a benchmark's Pareto frontier: no
 * other point has <= Slices, <= banks and >= P(c, s).
 */
struct FrontierPoint
{
    unsigned banks = 0;
    unsigned slices = 1;
    double perf = 0.0; //!< P(c, s)
};

/** Exhaustive sweeps over the (banks, slices) grid. */
class UtilityOptimizer
{
  public:
    /**
     * @param perf memoized performance surface (shared across studies)
     * @param area area model for the performance/area metrics
     */
    UtilityOptimizer(PerfModel &perf, const AreaModel &area);

    /** argmax P(c,s)^k / area(c,s) -- Table 4's metrics. */
    OptResult peakPerfPerArea(const std::string &benchmark, int k);
    OptResult peakPerfPerArea(const BenchmarkProfile &profile, int k);

    /**
     * argmax utility under @p market and @p budget -- Tables 5/6.
     * Scans frontier(@p benchmark) in grid order: the result is the
     * exhaustive sweep's, first maximum included (DESIGN.md section
     * 5), provided @p budget > 0 and both prices are >= 0.
     */
    OptResult peakUtility(const std::string &benchmark, UtilityKind u,
                          const Market &market, double budget);

    /**
     * The shapes of the 72-point grid that no other shape dominates,
     * in the sweeps' Slice-major, bank-minor order.  Built from
     * PerfModel::performance() on first use and then kept.
     */
    const std::vector<FrontierPoint> &frontier(
        const std::string &benchmark);

    /** Utility at one explicit configuration. */
    double utilityAt(const std::string &benchmark, UtilityKind u,
                     const Market &market, double budget,
                     unsigned banks, unsigned slices);

    /** The whole surface (Figure 14's heat maps). */
    std::vector<SurfacePoint> utilitySurface(
        const std::string &benchmark, UtilityKind u,
        const Market &market, double budget);

    PerfModel &perfModel() { return *perf_; }
    const AreaModel &areaModel() const { return area_; }

  private:
    PerfModel *perf_;
    AreaModel area_;
    std::mutex frontierMutex_; //!< guards frontiers_
    std::unordered_map<std::string, std::vector<FrontierPoint>>
        frontiers_;
};

} // namespace sharch

#endif // SHARCH_ECON_OPTIMIZER_HH
