#include "study/surface.hh"

#include <chrono>
#include <cstdlib>

#include "common/logging.hh"
#include "config/sim_config.hh"
#include "exec/run_options.hh"
#include "trace/profile.hh"

namespace sharch::study {

namespace {

/**
 * Read an environment count through the same strict parser the CLI
 * uses; @p zero_ok distinguishes seeds (0 is a value) from instruction
 * counts (0 would simulate nothing).
 */
std::uint64_t
envCount(const char *name, std::uint64_t fallback, bool zero_ok)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return fallback;
    std::uint64_t v = 0;
    if (!exec::parseU64(env, &v) || (!zero_ok && v == 0)) {
        SHARCH_WARN(name, "='", env, "' is not a valid count; using ",
                    fallback);
        return fallback;
    }
    return v;
}

} // namespace

std::size_t
envInstructions(std::size_t fallback)
{
    return static_cast<std::size_t>(
        envCount("SHARCH_BENCH_INSTRUCTIONS", fallback, false));
}

std::uint64_t
envSeed(std::uint64_t fallback)
{
    return envCount("SHARCH_BENCH_SEED", fallback, true);
}

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
