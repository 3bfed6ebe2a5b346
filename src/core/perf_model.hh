/**
 * @file
 * The performance surface P(c, s) the economics build on.
 *
 * Section 5.6 defines an application's single-thread performance
 * P(c, s) as a function of L2 cache and Slice count; every utility and
 * market experiment consumes it.  PerfModel runs SSim across the
 * configuration grid (memoized -- exhaustive sweeps revisit points)
 * and exposes performance in committed instructions per cycle.
 *
 * PerfModel is concurrency-safe end-to-end: the memo and generator
 * cache are mutex-guarded, disk-cache appends are serialized, and
 * performanceBatch() fans whole grids across an exec::SweepRunner
 * worker pool.  Every simulation derives its seed from the point's
 * identity via exec::deriveJobSeed(), so a batch run with N threads
 * is bit-identical (IPC values and CSV cache contents) to the same
 * batch run serially.
 *
 * The grid of L2 sizes follows the paper: 0 KB to 8 MB in powers of
 * two (Figure 13, Equation 3).
 */

#ifndef SHARCH_CORE_PERF_MODEL_HH
#define SHARCH_CORE_PERF_MODEL_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/sim_config.hh"
#include "core/sampling.hh"
#include "core/vm_sim.hh"
#include "exec/sweep.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace sharch {

/** Grid of L2 bank counts used by the paper's sweeps (0 KB..8 MB). */
const std::vector<unsigned> &l2BankGrid();

/** Cache size in KB for a bank count under the 64 KB-bank default. */
unsigned banksToKb(unsigned banks);

/** Memoized, thread-safe SSim runner over (benchmark, banks, slices). */
class PerfModel
{
  public:
    /**
     * @param instructions_per_thread trace length per thread
     * @param seed                    base generation/simulation seed
     */
    explicit PerfModel(std::size_t instructions_per_thread = 60000,
                       std::uint64_t seed = 1);

    PerfModel(const PerfModel &) = delete;
    PerfModel &operator=(const PerfModel &) = delete;

    /**
     * Performance of @p benchmark on a VCore with @p banks 64 KB L2
     * banks and @p slices Slices, in aggregate committed IPC (for
     * multithreaded workloads this is VM throughput on one VCore's
     * worth of resources scaled per-VCore; see DESIGN.md).
     */
    double performance(const std::string &benchmark, unsigned banks,
                       unsigned slices);

    /** Performance for an ad-hoc profile (e.g., a gcc phase). */
    double performance(const BenchmarkProfile &profile, unsigned banks,
                       unsigned slices);

    /**
     * Evaluate a whole batch of grid points, fanned across
     * @p threads sweep workers (0: exec::resolveThreadCount(), i.e.
     * hardware concurrency).  Results align with
     * @p points; duplicates are simulated once.  Newly simulated
     * values enter the memo and the disk cache in the deterministic
     * order of @p points (single writer, one batched append), so the
     * CSV contents do not depend on the worker count.
     */
    std::vector<exec::SweepResult> performanceBatch(
        const std::vector<exec::SweepPoint> &points,
        unsigned threads = 0);

    /** Full stats for one configuration (uncached path). */
    VmResult detailedRun(const BenchmarkProfile &profile,
                         unsigned banks, unsigned slices);

    std::size_t instructionsPerThread() const { return instructions_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * How simulations obtain their SimStats.  The default,
     * SampleMode::Full, detailed-times every instruction and is
     * byte-identical to the historical output.  SampleMode::Sampled
     * routes every run through a SamplingController with @p schedule:
     * only the measure windows are detailed-timed; the rest of the
     * stream advances through the functional fast-forward, and
     * whole-run counters are ratio-extrapolated.  Sampled IPCs are
     * estimates, so they never enter or leave the disk cache (its
     * rows carry no mode column and must stay exact).  Set before
     * running -- not meant to change mid-batch.
     */
    void
    setSampleMode(SampleMode mode,
                  const SampleSchedule &schedule = kDefaultSampleSchedule)
    {
        sampleMode_ = mode;
        sampleSchedule_ = schedule;
    }
    SampleMode sampleMode() const { return sampleMode_; }
    const SampleSchedule &sampleSchedule() const
    { return sampleSchedule_; }

    /**
     * Persist performance results to @p path (CSV) and preload any
     * existing entries whose (instructions, seed) match.  Lets several
     * benchmark harnesses share one simulated surface.  Within the
     * file the last row for a point wins, but a point this model has
     * already memoized keeps its value.
     */
    void enableDiskCache(const std::string &path);

  private:
    /**
     * Memo key over (benchmark, banks, slices), hashed -- the batch
     * phases probe it once per grid point, and the historical
     * tuple-of-string std::map paid an O(log n) chain of string
     * comparisons per probe.
     */
    struct MemoKey
    {
        std::string name;
        std::uint32_t banks = 0;
        std::uint32_t slices = 0;

        bool operator==(const MemoKey &) const = default;
    };

    struct MemoKeyHash
    {
        std::size_t operator()(const MemoKey &k) const
        {
            // Fold the grid coordinates into the string hash with a
            // Fibonacci multiplier so (banks, slices) permutations of
            // one benchmark spread over the table.
            std::size_t h = std::hash<std::string>{}(k.name);
            const std::uint64_t coord =
                (static_cast<std::uint64_t>(k.banks) << 32) |
                k.slices;
            h ^= coord * 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
            return h;
        }
    };

    std::size_t instructions_;
    std::uint64_t seed_;
    SampleMode sampleMode_ = SampleMode::Full;
    SampleSchedule sampleSchedule_ = kDefaultSampleSchedule;
    std::unordered_map<MemoKey, double, MemoKeyHash> memo_;
    /**
     * One generator skeleton per profile name, kept for the model's
     * lifetime like memo_.  Unbounded by design: names come from the
     * benchmark catalogue plus tab7's gcc phases, and the whole
     * catalogue's skeletons total about 1.6 MB.
     */
    std::unordered_map<std::string,
                       std::shared_ptr<const TraceGenerator>>
        generators_;
    std::string cachePath_;

    mutable std::mutex memoMutex_; //!< guards memo_ and CSV appends
    mutable std::mutex genMutex_;  //!< guards generators_

    /** Simulate one point (no memo side effects; thread-safe). */
    double simulatePoint(const BenchmarkProfile &profile,
                         unsigned banks, unsigned slices);

    /** Write one CSV cache row to an already-open append stream. */
    void writeCacheRow(std::ostream &out, const std::string &name,
                       unsigned banks, unsigned slices,
                       double perf) const;

    /** Shared generator for @p p, built once per profile name so
     *  grid sweeps never rebuild a skeleton. */
    std::shared_ptr<const TraceGenerator> generatorFor(
        const BenchmarkProfile &p);
};

} // namespace sharch

#endif // SHARCH_CORE_PERF_MODEL_HH
