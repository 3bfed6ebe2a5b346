/**
 * @file
 * The parallel sweep engine: batches of configuration points
 * evaluated concurrently with a determinism guarantee.
 *
 * Every figure/table harness consumes the performance surface
 * P(c, s); a full grid is |benchmarks| x |l2BankGrid()| x 8 Slice
 * counts of independent VmSim runs.  SweepRunner fans a batch of
 * SweepPoint jobs across a fixed ThreadPool.
 *
 * Determinism contract: a job's result is a pure function of
 * (point, base seed, instruction count).  Each job derives its RNG
 * seed via deriveJobSeed() from the *identity* of the point -- never
 * from submission order, worker id, or wall clock -- so a sweep run
 * with N threads is bit-identical to the same sweep run with one.
 */

#ifndef SHARCH_EXEC_SWEEP_HH
#define SHARCH_EXEC_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/profile.hh"

namespace sharch::exec {

/** One configuration-grid job: a workload on a (banks, slices) shape. */
struct SweepPoint
{
    BenchmarkProfile profile;
    unsigned banks = 0;  //!< 64 KB L2 banks attached to the VCore
    unsigned slices = 1; //!< Slices composing the VCore

    /** Memo identity (profiles with equal names are the same job). */
    bool sameConfigAs(const SweepPoint &o) const
    {
        return profile.name == o.profile.name && banks == o.banks &&
               slices == o.slices;
    }
};

/** Point by builtin benchmark name; fatal() when unknown. */
SweepPoint sweepPoint(const std::string &benchmark, unsigned banks,
                      unsigned slices);

/** One evaluated point of the performance surface. */
struct SweepResult
{
    std::string name;    //!< profile name of the point
    unsigned banks = 0;
    unsigned slices = 1;
    double ipc = 0.0;    //!< per-VCore committed IPC, P(c, s)
    bool fresh = false;  //!< simulated now (false: served from cache)
};

/** Slice counts 1..max (Equation 3's 1 <= s <= 8 by default). */
std::vector<unsigned> sliceRange(unsigned max_slices = 8);

/**
 * Cross product of benchmarks x banks x slices, in deterministic
 * row-major order (benchmark outermost).
 */
std::vector<SweepPoint> sweepGrid(
    const std::vector<std::string> &benchmarks,
    const std::vector<unsigned> &banks,
    const std::vector<unsigned> &slices);

/** Same grid over ad-hoc profiles (e.g. gcc phases). */
std::vector<SweepPoint> sweepGrid(
    const std::vector<BenchmarkProfile> &profiles,
    const std::vector<unsigned> &banks,
    const std::vector<unsigned> &slices);

/**
 * Per-job seed: a splitmix64-style mix of the base seed with the
 * point's identity (benchmark name, banks, slices).  Stable across
 * platforms and submission orders; distinct points get decorrelated
 * streams even for adjacent grid coordinates.
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            const std::string &benchmark,
                            unsigned banks, unsigned slices);

/**
 * Worker count for sweeps: @p requested if nonzero, else
 * std::thread::hardware_concurrency() (at least 1).
 */
unsigned resolveThreadCount(unsigned requested = 0);

/** Evaluates one SweepPoint to its IPC; must be thread-safe. */
using PointEvaluator = std::function<double(const SweepPoint &)>;

/**
 * Runs batches of sweep jobs on a fixed thread pool.
 *
 * The runner owns scheduling only; the evaluator owns simulation.
 * Results are returned in the order of the input points regardless of
 * which worker finished first.
 *
 * Failure safety: a throwing evaluator never aborts the batch.  The
 * remaining points still run to completion; run() then rethrows the
 * first failure *in input-point order* (not completion order, which
 * would be racy).
 */
class SweepRunner
{
  public:
    /** @param threads worker count (0: resolveThreadCount()). */
    explicit SweepRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Evaluate @p eval over @p points; result i corresponds to
     * points[i].  Duplicate points (by sameConfigAs) are evaluated
     * once and fanned out to every occurrence.  If any evaluation
     * threw, the whole batch still completes, then the first failing
     * point's exception (in input order) is rethrown.
     */
    std::vector<double> run(const std::vector<SweepPoint> &points,
                            const PointEvaluator &eval) const;

  private:
    unsigned threads_;
};

} // namespace sharch::exec

#endif // SHARCH_EXEC_SWEEP_HH
