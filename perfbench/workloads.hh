/**
 * @file
 * The three workloads and the per-layer probes their traced runs
 * share.
 *
 * A traced run reports the per-layer metrics of the layers its
 * workload uses, measured on the workload's own objects; run.py
 * reports every other per-layer metric as 0 (the layer does no work
 * there, which is the "no change" prediction).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "econ/market.hh"
#include "econ/optimizer.hh"
#include "hyper/spot_market.hh"

namespace perfbench {

Result runSweep(const Options &o);
Result runChurn(const Options &o);
Result runServe(const Options &o);

/** The committed reference digests (--digest-only). */
std::string sweepDigest();
std::string churnDigest(std::uint64_t key);

// --- Per-layer probes (layers.cc) ---------------------------------------

/**
 * trace / core / sim / cache / noc: every point of @p grid generated
 * (TraceGenerator::generateThreads) and simulated (VmSim::run) one at
 * a time, each call in its own span.  Checks each point's IPC against
 * @p pm's surface and the SimStats digest against PerfModel::
 * detailedRun fanned over kWorkers.
 */
void surfaceLayers(sharch::PerfModel &pm,
                   const std::vector<exec::SweepPoint> &grid,
                   Result *r);

/**
 * One performanceBatch of @p grid into @p pm with @p threads workers;
 * @return its wall time, results in @p out.
 */
double timedBatch(sharch::PerfModel &pm,
                  const std::vector<exec::SweepPoint> &grid,
                  unsigned threads,
                  std::vector<exec::SweepResult> *out);

/** Fail unless two evaluations of one grid are bit-identical. */
void checkSameSurface(const std::vector<exec::SweepResult> &a,
                      const std::vector<exec::SweepResult> &b,
                      const std::string &what, Result *r);

/** exec.points and exec.speedup (1-worker over 2-worker batch). */
void execLayers(const std::vector<exec::SweepPoint> &grid,
                std::size_t instructions, std::uint64_t seed,
                double twoWorkerSeconds,
                const std::vector<exec::SweepResult> &twoWorker,
                Result *r);

/** core.perf_lookup_ns: warm PerfModel::performance(name, ...). */
void lookupLayer(sharch::PerfModel &pm,
                 const std::vector<exec::SweepPoint> &grid,
                 std::uint64_t seed, Result *r);

/** One bidder's Equation 2 inputs. */
struct Bidder
{
    std::string benchmark;
    sharch::UtilityKind utility = sharch::UtilityKind::Throughput;
    double budget = 0.0;
};

/** econ.peak_utility_us over @p bidders x @p prices. */
void utilityLayer(sharch::UtilityOptimizer &opt,
                  const std::vector<Bidder> &bidders,
                  const std::vector<sharch::Market> &prices, Result *r);

/** hyper.market_step_us: SpotMarket::step on a restored book. */
void marketStepLayer(sharch::UtilityOptimizer &opt,
                     const sharch::SpotMarketSnapshot &book, Result *r);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
