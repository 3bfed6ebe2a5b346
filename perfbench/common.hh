/**
 * @file
 * Shared plumbing of the perfbench workloads: wall-clock helpers,
 * order statistics, the result document, spans recorded through the
 * existing obs::Tracer, digests, the reference-digest file, and the
 * P(c, s) surface set-up the churn and serve workloads share.
 *
 * Every workload runs in its own process in a fresh working
 * directory (run.py creates it), so the peak RSS it reads belongs to
 * that workload alone.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/perf_model.hh"
#include "exec/sweep.hh"

namespace perfbench {

namespace exec = sharch::exec;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/** Nanoseconds of steady_clock (CLOCK_MONOTONIC), the span clock. */
std::uint64_t nowNs();

/** Median (mean of the middle pair for an even count); 0 when empty. */
double median(std::vector<double> v);

/**
 * The q-quantile (0 < q < 1) by linear interpolation between closest
 * ranks; 0 when empty.
 */
double quantile(std::vector<double> v, double q);

/** Command line of one workload process (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tracePath = "perfbench.trace.json";
    std::string referencePath;  //!< committed reference digests
    bool setupOnly = false;     //!< stop after set-up (a set-up probe)
};

/** One named metric of the result document. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run produced; main.cc renders it as JSON. */
struct Result
{
    bool correct = true;
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::string digest; //!< the reference-checked digest, if any

    /**
     * steady_clock (CLOCK_MONOTONIC) nanoseconds at the first timed
     * operation, less the time the benchmark spent before it on its
     * own bookkeeping (overheadNs).  run.py subtracts the time it
     * spawned the process at: that is setup_s.
     */
    std::uint64_t firstOpNs = 0;
    std::uint64_t overheadNs = 0;

    /** Set-up is over: stamp firstOpNs (once). */
    void markFirstOp();

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a correctness failure (the run exits non-zero). */
    void fail(const std::string &what);
};

// --- Spans ------------------------------------------------------------

/** Track (Chrome "tid") per layer boundary the benchmark times. */
enum Track : std::uint32_t
{
    kTrackWorkload = 1,
    kTrackSurface,
    kTrackEngine,
    kTrackServe,
    kTrackProbe,
};

/** Turn span recording on (names the process and tracks). */
void enableTracing();

/**
 * Record one span: @p name and @p category must be string literals.
 * @p arg is the request or grid-point id the span belongs to.
 */
void recordSpan(const char *name, const char *category, Track track,
                std::uint64_t beginNs, std::uint64_t endNs,
                std::uint64_t arg = 0, const char *argName = nullptr);

/** RAII span around one call; a no-op when tracing is off. */
class Span
{
  public:
    Span(const char *name, const char *category, Track track,
         std::uint64_t arg = 0, const char *argName = nullptr);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    const char *category_;
    Track track_;
    std::uint64_t arg_;
    const char *argName_;
    std::uint64_t begin_;
};

/** Write the sharch-trace-v1 document; @return spans written. */
std::uint64_t writeTrace(const std::string &path, std::uint64_t *dropped);

// --- Digests ----------------------------------------------------------

/** FNV-1a over @p size bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

std::string hex64(std::uint64_t v);

/**
 * Compare @p digest with the committed entry for (@p workload, @p key)
 * in the reference file.  The file must also pass its own trailing
 * checksum line, so a hand-edited digest fails every run.
 */
void checkReference(const Options &o, const std::string &workload,
                    std::uint64_t key, const std::string &digest,
                    Result *r);

/** Reference seeds per workload: the run's key is seed % this + 1. */
inline constexpr std::uint64_t kReferenceSeeds = 8;
inline std::uint64_t referenceKey(std::uint64_t seed)
{
    return seed % kReferenceSeeds + 1;
}

// --- Surface ----------------------------------------------------------

/** Simulated instructions behind one grid point. */
std::uint64_t pointInstructions(const exec::SweepPoint &p,
                                std::size_t perThread);

/**
 * Write a warm sharch_perf_cache.csv into the working directory, before
 * any set-up, whose rows cover @p grid at (@p instructions, @p seed)
 * with deliberately wrong values.  The benchmark never enables a disk
 * cache, so the reference digests prove none of those values reached a
 * result, and checkCacheUntouched() that the file was not appended to.
 * The time it takes goes to @p r's overheadNs, not to set-up.
 */
std::string plantWarmCache(const std::vector<exec::SweepPoint> &grid,
                           std::size_t instructions, std::uint64_t seed,
                           Result *r);
void checkCacheUntouched(const std::string &planted, Result *r);

/**
 * A surface prefilled at sharch-serve's defaults (2000 instructions,
 * seed 1) with 2 workers, in a fresh model.
 */
std::unique_ptr<sharch::PerfModel>
prefillServeSurface(const std::vector<exec::SweepPoint> &grid);

inline constexpr std::size_t kServeInstructions = 2000;
inline constexpr std::uint64_t kServeSeed = 1;
inline constexpr unsigned kWorkers = 2;

/**
 * Peak resident set size of this process so far, in MB.  Workloads
 * read it after their first repetition, so it does not depend on how
 * many repetitions the host's speed fits into --seconds.
 */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
