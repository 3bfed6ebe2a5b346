/**
 * @file
 * The shared, disk-cached performance surface the studies (and the
 * tools and examples) run against.
 *
 * Moved here from the header-only bench/bench_util.hh so there is one
 * implementation of the disk-cache setup instead of one per binary.
 * All studies sweep the same surface P(c, s); the CSV cache in the
 * working directory lets successive runs share simulation results, so
 * the first run pays for a configuration and the rest reuse it.
 *
 * Environment:
 *   SHARCH_BENCH_INSTRUCTIONS  trace length per thread (default 40000)
 *   SHARCH_BENCH_SEED          generation seed (default 1)
 *   SHARCH_THREADS             sweep worker threads (default: hardware
 *                              concurrency); results are bit-identical
 *                              for any value, including 1
 *
 * Malformed values warn and fall back to the default -- they are never
 * silently read as 0 (the old strtoull behavior).
 */

#ifndef SHARCH_STUDY_SURFACE_HH
#define SHARCH_STUDY_SURFACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/perf_model.hh"
#include "exec/sweep.hh"

namespace sharch::study {

/** The disk-cache file every study run shares (cwd-relative). */
inline constexpr const char *kPerfCachePath = "sharch_perf_cache.csv";

/**
 * SHARCH_BENCH_INSTRUCTIONS, validated like RunOptions validates
 * --instructions: garbage or zero warns and returns the default.
 */
std::size_t envInstructions(std::size_t fallback = 40000);

/** SHARCH_BENCH_SEED, validated; garbage warns and returns default. */
std::uint64_t envSeed(std::uint64_t fallback = 1);

/** Point @p pm at the shared CSV cache (kPerfCachePath). */
void enableSharedDiskCache(PerfModel &pm);

/** What prefillSurface() did, for status lines. */
struct PrefillStats
{
    std::size_t points = 0;    //!< grid points requested
    std::size_t simulated = 0; //!< freshly simulated now
    std::size_t cached = 0;    //!< served from the memo/disk cache
    unsigned threads = 0;      //!< worker count used
    double seconds = 0.0;      //!< wall-clock of the batch
};

/**
 * Simulate every uncached point of @p grid in parallel (one
 * performanceBatch) before a study starts querying the surface point
 * by point.  @p threads 0 resolves via exec::resolveThreadCount().
 */
PrefillStats prefillSurface(PerfModel &pm,
                            const std::vector<exec::SweepPoint> &grid,
                            unsigned threads = 0);

/** The full paper grid: all benchmarks x l2BankGrid() x slices 1..8. */
std::vector<exec::SweepPoint> fullPaperGrid();

} // namespace sharch::study

#endif // SHARCH_STUDY_SURFACE_HH
