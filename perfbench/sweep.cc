/**
 * @file
 * The `sweep` workload: the full P(c, s) surface build every study
 * prefill and every ssim sweep pays for.
 *
 * Untraced, each repetition times (a) study::fullPaperGrid() -- 15
 * profiles x 9 L2 sizes x 1..8 Slices = 1080 points -- at 40,000
 * instructions per thread through one PerfModel::performanceBatch on
 * kWorkers workers (throughput: simulated instructions per second,
 * median over repetitions), and (b) the same grid point by point
 * through PerfModel::performance() in a fresh model (latency: one
 * configuration's simulation, p50/p99 over the 1080 points).
 * Repetitions run until --seconds have passed, and at least
 * kMinRepetitions times.  Every evaluation must agree bit for bit, and
 * the IPC digest must match the committed reference.
 *
 * Each point keeps its fastest time over the run's point passes.  The
 * dozen heaviest points that set p99 are memory-bound and slow down
 * more than the median point when the shared host is busy; passes
 * spread over the whole run let p99 read them in the run's quietest
 * stretch.  The floor on the pass count keeps that minimum from
 * depending on how many passes the host's speed fits into --seconds.
 *
 * The traces use the studies' default seed (1), as every study
 * prefill does; --seed shuffles the order in which the grid is handed
 * to the batch and to the point pass.  A point's result is a pure
 * function of the point, so the surface and its digest are the same
 * for every seed.
 */

#include <algorithm>
#include <cmath>

#include "common/random.hh"
#include "study/surface.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sharch;

namespace {

constexpr std::size_t kSweepInstructions = 40000;
constexpr std::uint64_t kTraceSeed = 1;
constexpr std::size_t kMinRepetitions = 3;

/** The grid in a seed-shuffled order; @p order maps back. */
std::vector<exec::SweepPoint>
shuffled(const std::vector<exec::SweepPoint> &grid, std::uint64_t seed,
         std::vector<std::size_t> *order)
{
    order->resize(grid.size());
    for (std::size_t i = 0; i < order->size(); ++i)
        (*order)[i] = i;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (std::size_t i = order->size(); i > 1; --i)
        std::swap((*order)[i - 1], (*order)[rng.nextBounded(i)]);
    std::vector<exec::SweepPoint> out;
    for (const std::size_t i : *order)
        out.push_back(grid[i]);
    return out;
}

/** Results of a shuffled evaluation, back in grid order. */
std::vector<exec::SweepResult>
inGridOrder(const std::vector<exec::SweepResult> &res,
            const std::vector<std::size_t> &order)
{
    std::vector<exec::SweepResult> out(res.size());
    for (std::size_t j = 0; j < order.size(); ++j)
        out[order[j]] = res[j];
    return out;
}

std::string
ipcDigest(const std::vector<exec::SweepResult> &res)
{
    std::uint64_t h = fnv1a(std::string());
    for (const exec::SweepResult &p : res) {
        h = fnv1a(p.name, h);
        h = fnv1a(&p.banks, sizeof(p.banks), h);
        h = fnv1a(&p.slices, sizeof(p.slices), h);
        h = fnv1a(&p.ipc, sizeof(p.ipc), h);
    }
    return hex64(h);
}

/** Count the points whose IPC is not a finite positive number. */
std::uint64_t
badPoints(const std::vector<exec::SweepResult> &res)
{
    std::uint64_t bad = 0;
    for (const exec::SweepResult &p : res)
        bad += !(std::isfinite(p.ipc) && p.ipc > 0.0);
    return bad;
}

void
tracedSweep(const Options &o, const std::vector<exec::SweepPoint> &grid,
            Result *r)
{
    // The untraced batch is the baseline of the tracing overhead.
    std::vector<exec::SweepResult> untraced, traced;
    PerfModel base(kSweepInstructions, kTraceSeed);
    const double t2 = timedBatch(base, grid, kWorkers, &untraced);
    enableTracing();
    PerfModel pm(kSweepInstructions, kTraceSeed);
    double tt = 0.0;
    {
        Span span("sweep.pass", "workload", kTrackWorkload, o.seed,
                  "seed");
        tt = timedBatch(pm, grid, kWorkers, &traced);
    }
    checkSameSurface(untraced, traced, "traced vs untraced batch", r);
    r->attempted += 2 * grid.size();
    r->failed += badPoints(untraced) + badPoints(traced);
    r->set("obs.tracing_overhead_pct", (tt / t2 - 1.0) * 100.0, "%");

    execLayers(grid, kSweepInstructions, kTraceSeed, t2, untraced, r);
    surfaceLayers(pm, grid, r);
    checkReference(o, "sweep", kTraceSeed, ipcDigest(untraced), r);
}

} // namespace

std::string
sweepDigest()
{
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    PerfModel pm(kSweepInstructions, kTraceSeed);
    std::vector<exec::SweepResult> res;
    timedBatch(pm, grid, kWorkers, &res);
    return ipcDigest(res);
}

Result
runSweep(const Options &o)
{
    Result r;

    // Set-up: the grid in the run's order, as a sweep caller builds it
    // (each batch gets a fresh model).  Almost all of setup_s is the
    // process start itself.
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    std::vector<std::size_t> order;
    const std::vector<exec::SweepPoint> jobs = shuffled(grid, o.seed,
                                                        &order);
    const std::string planted =
        plantWarmCache(grid, kSweepInstructions, kTraceSeed, &r);
    r.markFirstOp();
    if (o.setupOnly)
        return r;

    if (o.trace) {
        tracedSweep(o, grid, &r);
        checkCacheUntouched(planted, &r);
        return r;
    }
    std::uint64_t instructions = 0;
    for (const exec::SweepPoint &p : grid)
        instructions += pointInstructions(p, kSweepInstructions);

    const Clock::time_point start = Clock::now();
    std::vector<double> rates;
    std::vector<double> pointMs(grid.size(), HUGE_VAL);
    std::vector<exec::SweepResult> first, batch;
    do {
        PerfModel pm(kSweepInstructions, kTraceSeed);
        const double secs = timedBatch(pm, jobs, kWorkers, &batch);
        batch = inGridOrder(batch, order);
        rates.push_back(static_cast<double>(instructions) / secs);
        r.attempted += grid.size();
        r.failed += badPoints(batch);
        if (first.empty())
            first = batch;
        else
            checkSameSurface(first, batch, "two batches", &r);

        PerfModel single(kSweepInstructions, kTraceSeed);
        std::vector<exec::SweepResult> serial(grid.size());
        for (const std::size_t i : order) {
            const exec::SweepPoint &p = grid[i];
            const Clock::time_point t0 = Clock::now();
            const double ipc =
                single.performance(p.profile, p.banks, p.slices);
            pointMs[i] = std::min(pointMs[i], since(t0) * 1e3);
            serial[i] = exec::SweepResult{p.profile.name, p.banks,
                                          p.slices, ipc, true};
        }
        checkSameSurface(serial, batch,
                         "point API (1 worker) vs performanceBatch (" +
                             std::to_string(kWorkers) + " workers)",
                         &r);
        r.attempted += grid.size();
        r.failed += badPoints(serial);
        if (rates.size() == 1)
            r.set("peak_rss_mb", peakRssMb(), "MB");
    } while (since(start) < o.seconds || rates.size() < kMinRepetitions);

    r.set("throughput_per_s", median(rates), "1/s");
    r.set("p50_ms", median(pointMs), "ms");
    r.set("p99_ms", quantile(pointMs, 0.99), "ms");
    checkReference(o, "sweep", kTraceSeed, ipcDigest(batch), &r);
    checkCacheUntouched(planted, &r);
    return r;
}

} // namespace perfbench
