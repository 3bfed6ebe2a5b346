#include "study/surface.hh"

#include <chrono>

#include "config/sim_config.hh"
#include "trace/profile.hh"

namespace sharch::study {

void
enableSharedDiskCache(PerfModel &pm)
{
    pm.enableDiskCache(kPerfCachePath);
}

PrefillStats
prefillSurface(PerfModel &pm,
               const std::vector<exec::SweepPoint> &grid,
               unsigned threads)
{
    PrefillStats stats;
    stats.threads = exec::resolveThreadCount(threads);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<exec::SweepResult> results =
        pm.performanceBatch(grid, threads);
    stats.points = results.size();
    for (const exec::SweepResult &r : results)
        stats.simulated += r.fresh;
    stats.cached = stats.points - stats.simulated;
    stats.seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return stats;
}

std::vector<exec::SweepPoint>
fullPaperGrid()
{
    return exec::sweepGrid(benchmarkNames(), l2BankGrid(),
                           exec::sliceRange(SimConfig::kMaxSlices));
}

} // namespace sharch::study
