/**
 * @file
 * Per-layer probes shared by the traced runs of all three workloads.
 */

#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "common/random.hh"
#include "config/sim_config.hh"
#include "core/vm_sim.hh"
#include "trace/generator.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sharch;

namespace {

/** Every counter of one SimStats, in declaration order. */
std::vector<std::uint64_t>
statsWords(const SimStats &s)
{
    std::vector<std::uint64_t> w = {
        s.cycles, s.instructionsCommitted, s.instructionsFetched,
        s.squashedInstructions, s.branches, s.branchMispredicts,
        s.loads, s.stores, s.lsqViolations, s.l1dAccesses,
        s.l1dMisses, s.l1iAccesses, s.l1iMisses, s.l2Accesses,
        s.l2Misses, s.coherenceInvalidations, s.operandRequests,
        s.operandReplies, s.operandNetworkHops,
        s.operandNetworkStalls, s.renameBroadcasts, s.sumOperandWait,
        s.sumIssueWait, s.sumExecLatency};
    for (const Count c : s.stallCycles)
        w.push_back(c);
    return w;
}

/** Digest of every point's stats, truncated to a JSON-exact 52 bits. */
std::uint64_t
statsDigest(const std::vector<VmResult> &runs)
{
    std::uint64_t h = fnv1a(std::string());
    for (const VmResult &run : runs) {
        const std::vector<std::uint64_t> w = statsWords(run.aggregate);
        h = fnv1a(w.data(), w.size() * sizeof(std::uint64_t), h);
        h = fnv1a(&run.cycles, sizeof(run.cycles), h);
    }
    return h & ((std::uint64_t{1} << 52) - 1);
}

unsigned
vcoresOf(const BenchmarkProfile &p)
{
    return p.multithreaded ? p.numThreads : 1;
}

} // namespace

void
surfaceLayers(PerfModel &pm, const std::vector<exec::SweepPoint> &grid,
              Result *r)
{
    std::vector<double> genMs, simMs;
    std::vector<VmResult> serial(grid.size());
    double simNs = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exec::SweepPoint &p = grid[i];
        SimConfig cfg;
        cfg.numSlices = p.slices;
        cfg.numL2Banks = p.banks;
        cfg.seed = exec::deriveJobSeed(pm.seed(), p.profile.name,
                                       p.banks, p.slices);

        std::uint64_t t0 = nowNs();
        const std::vector<Trace> traces =
            TraceGenerator(p.profile, pm.seed())
                .generateThreads(pm.instructionsPerThread());
        std::uint64_t t1 = nowNs();
        recordSpan("trace.generate", "trace", kTrackSurface, t0, t1, i,
                   "point");

        VmSim vm(cfg, vcoresOf(p.profile));
        vm.prewarm(p.profile);
        serial[i] = vm.run(traces);
        const std::uint64_t t2 = nowNs();
        recordSpan("core.simulate", "core", kTrackSurface, t1, t2, i,
                   "point");

        genMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        simMs.push_back(static_cast<double>(t2 - t1) / 1e6);
        simNs += static_cast<double>(t2 - t1);

        const double ipc =
            serial[i].throughput() / vcoresOf(p.profile);
        const double surface =
            pm.performance(p.profile, p.banks, p.slices);
        if (std::memcmp(&ipc, &surface, sizeof(double)) != 0) {
            r->fail("point " + std::to_string(i) + " (" +
                    p.profile.name + ") simulates to a different IPC "
                    "than the surface holds");
        }
    }

    // The same points through PerfModel::detailedRun on the worker
    // pool: the stats digest must not depend on the worker count or
    // on streamed vs. materialized traces.
    std::map<std::tuple<std::string, unsigned, unsigned>, std::size_t>
        index;
    for (std::size_t i = 0; i < grid.size(); ++i)
        index[{grid[i].profile.name, grid[i].banks, grid[i].slices}] =
            i;
    std::vector<VmResult> pooled(grid.size());
    {
        Span span("core.detailed_run_batch", "core", kTrackSurface,
                  grid.size(), "points");
        exec::SweepRunner(kWorkers).run(
            grid, [&](const exec::SweepPoint &p) {
                const std::size_t i =
                    index.at({p.profile.name, p.banks, p.slices});
                pooled[i] = pm.detailedRun(p.profile, p.banks,
                                           p.slices);
                return 0.0;
            });
    }
    const std::uint64_t digest = statsDigest(serial);
    if (statsDigest(pooled) != digest)
        r->fail("SimStats digest differs between the serial pass and "
                "detailedRun on " + std::to_string(kWorkers) +
                " workers");

    std::uint64_t cycles = 0, insts = 0, l1dMiss = 0, l2Acc = 0,
                  l2Miss = 0, hops = 0, stalls = 0;
    for (const VmResult &v : pooled) {
        cycles += v.cycles;
        insts += v.aggregate.instructionsCommitted;
        l1dMiss += v.aggregate.l1dMisses;
        l2Acc += v.aggregate.l2Accesses;
        l2Miss += v.aggregate.l2Misses;
        hops += v.aggregate.operandNetworkHops;
        stalls += v.aggregate.operandNetworkStalls;
    }
    r->set("trace.generate_ms", median(genMs), "ms");
    r->set("core.simulate_ms", median(simMs), "ms");
    r->set("core.host_ns_per_sim_cycle",
           cycles ? simNs / static_cast<double>(cycles) : 0.0, "ns");
    r->set("sim.cycles", static_cast<double>(cycles), "count");
    r->set("sim.instructions", static_cast<double>(insts), "count");
    r->set("cache.l1d_misses", static_cast<double>(l1dMiss), "count");
    r->set("cache.l2_accesses", static_cast<double>(l2Acc), "count");
    r->set("cache.l2_misses", static_cast<double>(l2Miss), "count");
    r->set("noc.operand_hops", static_cast<double>(hops), "count");
    r->set("noc.operand_stalls", static_cast<double>(stalls), "count");
    r->set("sim.stats_digest", static_cast<double>(digest), "id");
}

double
timedBatch(PerfModel &pm, const std::vector<exec::SweepPoint> &grid,
           unsigned threads, std::vector<exec::SweepResult> *out)
{
    Span span("exec.performance_batch", "exec", kTrackWorkload,
              threads, "workers");
    const Clock::time_point t0 = Clock::now();
    *out = pm.performanceBatch(grid, threads);
    return since(t0);
}

void
checkSameSurface(const std::vector<exec::SweepResult> &a,
                 const std::vector<exec::SweepResult> &b,
                 const std::string &what, Result *r)
{
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].name == b[i].name && a[i].banks == b[i].banks &&
               a[i].slices == b[i].slices &&
               std::memcmp(&a[i].ipc, &b[i].ipc, sizeof(double)) == 0;
    }
    if (!same)
        r->fail("surface differs: " + what);
}

void
execLayers(const std::vector<exec::SweepPoint> &grid,
           std::size_t instructions, std::uint64_t seed,
           double twoWorkerSeconds,
           const std::vector<exec::SweepResult> &twoWorker, Result *r)
{
    std::vector<exec::SweepResult> one;
    PerfModel pm(instructions, seed);
    const double t1 = timedBatch(pm, grid, 1, &one);
    checkSameSurface(one, twoWorker, "1 worker vs " +
                                         std::to_string(kWorkers), r);
    r->set("exec.points", static_cast<double>(grid.size()), "count");
    r->set("exec.speedup", t1 / twoWorkerSeconds, "x");
}

void
lookupLayer(PerfModel &pm, const std::vector<exec::SweepPoint> &grid,
            std::uint64_t seed, Result *r)
{
    constexpr std::size_t kCalls = 200000;
    Rng rng(seed ^ 0x10c0u);
    std::vector<const exec::SweepPoint *> order(kCalls);
    for (const exec::SweepPoint *&p : order)
        p = &grid[rng.nextBounded(grid.size())];
    double sink = 0.0;
    Span span("core.perf_lookup", "core", kTrackProbe, kCalls, "calls");
    const std::uint64_t t0 = nowNs();
    for (const exec::SweepPoint *p : order)
        sink += pm.performance(p->profile.name, p->banks, p->slices);
    const double ns = static_cast<double>(nowNs() - t0);
    if (!std::isfinite(sink) || sink <= 0.0)
        r->fail("warm surface lookups returned no performance");
    r->set("core.perf_lookup_ns", ns / kCalls, "ns");
}

void
utilityLayer(UtilityOptimizer &opt, const std::vector<Bidder> &bidders,
             const std::vector<Market> &prices, Result *r)
{
    std::vector<double> us;
    Span span("econ.peak_utility", "econ", kTrackProbe,
              bidders.size() * prices.size(), "calls");
    for (const Market &m : prices) {
        for (const Bidder &b : bidders) {
            const std::uint64_t t0 = nowNs();
            const OptResult best =
                opt.peakUtility(b.benchmark, b.utility, m, b.budget);
            us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
            if (!std::isfinite(best.objective))
                r->fail("peakUtility returned a non-finite utility");
        }
    }
    r->set("econ.peak_utility_us", median(us), "us");
}

void
marketStepLayer(UtilityOptimizer &opt, const SpotMarketSnapshot &book,
                Result *r)
{
    constexpr int kSteps = 200;
    SpotMarket market(opt, book.sliceCapacity, book.bankCapacity);
    std::vector<double> us;
    Span span("hyper.market_step", "hyper", kTrackProbe, kSteps,
              "steps");
    for (int i = 0; i < kSteps; ++i) {
        market.restore(book);
        const std::uint64_t t0 = nowNs();
        market.step(0.25);
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    r->set("hyper.market_step_us", median(us), "us");
}

} // namespace perfbench
