/**
 * @file
 * The `churn` workload: fleet tenant churn with per-chip spot-market
 * auctions, in datacenter_churn's shape.
 *
 * 1536 chips are fed by a seeded diurnal WorkloadStream with budgets
 * and a fault layer on every 61st chip.  The P(c, s) surface is
 * prefilled in set-up at sharch-serve's default 2000 instructions, so
 * the timed section -- FleetEngine::runUntil stepped one epoch at a
 * time until the queue drains -- does no simulation: its time goes to
 * surface lookups, peakUtility and SpotMarket::step inside the epoch
 * auctions, plus placement and epoch sampling.  Rejected arrivals are
 * the workload's failures; the fleet is sized so that there are none.
 *
 * Checks: every stepped run passes checkInvariants() and renders the
 * same finalReport() bytes as one uninterrupted run(), whose digest
 * must equal the committed reference for the run's workload seed.
 */

#include <algorithm>
#include <functional>
#include <optional>

#include "area/area_model.hh"
#include "common/random.hh"
#include "fault/fault_model.hh"
#include "fleet/fleet_engine.hh"
#include "study/surface.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sharch;

namespace {

/** One churn experiment's knobs (fleet + workload + fault layer). */
struct ChurnParams
{
    fleet::ChipId chips = 1536;
    std::uint64_t tenants = 45000;
    Cycles epochPeriod = 16000;
    fleet::WorkloadConfig workload;
    fleet::ChipId faultStride = 61; //!< every Nth chip gets faults
    unsigned faultsPerChip = 6;
    double faultMtbf = 2.0e6;
    double faultMttr = 1.0e6;
};

/**
 * The benchmark's churn: datacenter_churn's traffic (arrivals every 400
 * cycles, 3e6-cycle mean lifetimes) with three quarters of its tenants
 * and 16,000-cycle epochs, which gives over 1000 epoch steps before the
 * last arrival.  On datacenter_churn's 1024 chips that traffic saturates
 * the fleet, which rejects about 5% of arrivals; on 1536 chips the peak
 * takes about 1,230 and every workload seed places every arrival.
 */
ChurnParams
benchChurn(std::uint64_t seed)
{
    ChurnParams p;
    p.workload.seed = seed;
    p.workload.meanGap = 400.0;
    p.workload.meanLifetime = 3.0e6;
    p.workload.dayLength = Cycles{1} << 22;
    return p;
}

fleet::FleetEngineConfig
fleetConfig(const ChurnParams &p)
{
    fleet::FleetEngineConfig cfg;
    cfg.fleet.chips = p.chips;
    cfg.epochPeriod = p.epochPeriod;
    return cfg;
}

/** A fresh engine with the stream and the fault schedules posted. */
std::unique_ptr<fleet::FleetEngine>
startChurn(UtilityOptimizer &opt, const fleet::WorkloadStream &stream,
           const ChurnParams &p)
{
    auto eng = std::make_unique<fleet::FleetEngine>(opt, fleetConfig(p));
    eng->startStream(stream, p.tenants);
    for (fleet::ChipId chip = p.faultStride / 2; chip < p.chips;
         chip += p.faultStride) {
        fault::FaultSpec spec;
        spec.seed = p.workload.seed * 8191 + chip;
        spec.mtbf = p.faultMtbf;
        spec.count = p.faultsPerChip;
        spec.mttr = p.faultMttr;
        fault::FaultModel model(spec, eng->config().fleet.chipWidth,
                                eng->config().fleet.chipHeight);
        eng->postFaultSchedule(chip, model.schedule());
    }
    return eng;
}

constexpr std::size_t kMinRepetitions = 3;

using MidHook = std::function<void(const fleet::FleetEngine &)>;

/**
 * Step @p eng one epoch period at a time until its queue drains.  The
 * wall time of each runUntil that starts while arrivals are still due
 * goes to @p epochMs.  The drain after the last arrival is left out of
 * them: it is a tail of ever emptier epochs whose length is set by the
 * longest lifetime, so a percentile over it would measure the seed
 * rather than the code.  @p atMid runs once, untimed, when the clock
 * first passes mid-horizon.
 * @return the summed time of every step in seconds.
 */
double
stepChurn(fleet::FleetEngine &eng, const ChurnParams &p,
          std::vector<double> *epochMs, MidHook atMid = nullptr)
{
    const Cycles mid = static_cast<Cycles>(
        static_cast<double>(p.tenants) * p.workload.meanGap / 2.0);
    double total = 0.0;
    std::uint64_t step = 0;
    for (Cycles t = p.epochPeriod; eng.pendingEvents() > 0;
         t += p.epochPeriod, ++step) {
        if (atMid && t > mid) {
            atMid(eng);
            atMid = nullptr;
        }
        const bool loaded = eng.stats().arrivals < p.tenants;
        const std::uint64_t t0 = nowNs();
        eng.runUntil(t);
        const std::uint64_t t1 = nowNs();
        recordSpan("engine.epoch_step", "engine", kTrackEngine, t0, t1,
                   step, "epoch");
        if (loaded)
            epochMs->push_back(static_cast<double>(t1 - t0) / 1e6);
        total += static_cast<double>(t1 - t0) / 1e9;
    }
    return total;
}

std::string
reportOf(const fleet::FleetEngine &eng)
{
    return study::renderJson(eng.finalReport());
}

/** Invariants of a drained engine; failures name the run. */
void
checkEngine(const fleet::FleetEngine &eng, const std::string &what,
            Result *r)
{
    std::string err;
    if (!eng.checkInvariants(&err))
        r->fail(what + " fails checkInvariants: " + err);
}

/** fleet.place_find_ns on a copy of @p eng's placement index. */
void
placeFindLayer(const fleet::FleetEngine &eng, const ChurnParams &p,
               Result *r)
{
    constexpr std::size_t kCalls = 100000;
    fleet::PlacementIndex idx = eng.fleet().index();
    Rng rng(p.workload.seed ^ 0xf1dULL);
    std::vector<std::pair<unsigned, unsigned>> asks(kCalls);
    for (auto &a : asks) {
        a.first = 1 + static_cast<unsigned>(
                          rng.nextBounded(p.workload.maxSlices));
        a.second = 1 + static_cast<unsigned>(
                           rng.nextBounded(p.workload.maxBanks));
    }
    std::uint64_t found = 0;
    Span span("fleet.place_find", "fleet", kTrackProbe, kCalls, "calls");
    const std::uint64_t t0 = nowNs();
    for (const auto &[slices, banks] : asks)
        found += idx.find(slices, banks).has_value();
    const double ns = static_cast<double>(nowNs() - t0);
    if (found == 0)
        r->fail("the mid-horizon placement index placed nothing");
    r->set("fleet.place_find_ns", ns / kCalls, "ns");
}

/** fleet.tenant_gen_ns: WorkloadStream::tenant down the stream. */
void
tenantGenLayer(const fleet::WorkloadStream &stream, Result *r)
{
    constexpr std::uint64_t kCalls = 20000;
    Cycles prev = 0;
    Span span("fleet.tenant_gen", "fleet", kTrackProbe, kCalls, "calls");
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < kCalls; ++i)
        prev = stream.tenant(i, prev).at;
    const double ns = static_cast<double>(nowNs() - t0);
    r->set("fleet.tenant_gen_ns", ns / kCalls, "ns");
}

/** Everything the churn layers read at mid-horizon. */
struct MidState
{
    std::optional<SpotMarketSnapshot> busiest;
    std::vector<Market> prices; //!< of the busiest chips
    std::vector<double> saveMs, restoreMs;
    std::size_t stateBytes = 0;
};

MidState
probeMid(UtilityOptimizer &opt, const fleet::FleetEngine &eng,
         const ChurnParams &p, Result *r)
{
    MidState m;
    placeFindLayer(eng, p, r);

    // The busiest chips by active bidders, ties to the lower id.
    std::vector<std::pair<unsigned, fleet::ChipId>> load;
    for (fleet::ChipId id = 0; id < eng.fleet().chipCount(); ++id) {
        if (const fleet::Chip *c = eng.fleet().peek(id))
            load.emplace_back(c->market.activeCustomers(), id);
    }
    std::sort(load.begin(), load.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first
                                  : a.second < b.second;
    });
    for (std::size_t i = 0; i < load.size() && i < 8; ++i) {
        const fleet::Chip *c = eng.fleet().peek(load[i].second);
        if (i == 0)
            m.busiest = c->market.snapshot();
        m.prices.push_back(c->market.prices());
    }

    for (int i = 0; i < 3; ++i) {
        const std::uint64_t t0 = nowNs();
        const std::string doc = eng.saveState();
        const std::uint64_t t1 = nowNs();
        recordSpan("engine.save_state", "engine", kTrackProbe, t0, t1,
                   doc.size(), "bytes");
        fleet::FleetEngine fresh(opt, fleetConfig(p));
        std::string err;
        const std::uint64_t t2 = nowNs();
        const bool ok = fresh.restoreState(doc, &err);
        const std::uint64_t t3 = nowNs();
        recordSpan("engine.restore_state", "engine", kTrackProbe, t2,
                   t3, doc.size(), "bytes");
        if (!ok)
            r->fail("mid-horizon state does not restore: " + err);
        m.saveMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        m.restoreMs.push_back(static_cast<double>(t3 - t2) / 1e6);
        m.stateBytes = doc.size();
    }
    return m;
}

/** The churn path's own per-layer metrics (traced run). */
double
churnLayers(UtilityOptimizer &opt, const fleet::WorkloadStream &stream,
            const ChurnParams &p, Result *r, std::string *report)
{
    auto eng = startChurn(opt, stream, p);
    MidState mid;
    std::vector<double> epochMs;
    const double secs = stepChurn(
        *eng, p, &epochMs, [&](const fleet::FleetEngine &e) {
            mid = probeMid(opt, e, p, r);
        });
    checkEngine(*eng, "traced stepped run", r);
    *report = reportOf(*eng);

    tenantGenLayer(stream, r);
    if (!mid.busiest) {
        r->fail("no chip was materialized by mid-horizon");
        return secs;
    }
    marketStepLayer(opt, *mid.busiest, r);
    std::vector<Bidder> bidders;
    Cycles prev = 0;
    for (std::uint64_t i = 0; bidders.size() < 300 && i < p.tenants;
         ++i) {
        const fleet::FleetTenant t = stream.tenant(i, prev);
        prev = t.at;
        if (t.budget > 0.0)
            bidders.push_back(Bidder{t.benchmark, t.utility, t.budget});
    }
    utilityLayer(opt, bidders, mid.prices, r);
    r->set("engine.save_state_ms", median(mid.saveMs), "ms");
    r->set("engine.restore_state_ms", median(mid.restoreMs), "ms");
    r->set("engine.state_bytes", static_cast<double>(mid.stateBytes),
           "B");

    const engine::EngineStats &s = eng->stats();
    const fleet::PlacementIndex &idx = eng->fleet().index();
    r->set("fleet.lookups", static_cast<double>(idx.lookups()), "count");
    r->set("fleet.tier_probes", static_cast<double>(idx.tierProbes()),
           "count");
    r->set("fleet.materialized",
           static_cast<double>(eng->fleet().materializedChips()),
           "count");
    r->set("engine.events", static_cast<double>(s.processed), "count");
    r->set("engine.epochs", static_cast<double>(s.epochs), "count");
    r->set("engine.auction_rounds", static_cast<double>(s.auctionRounds),
           "count");
    r->set("engine.rejected", static_cast<double>(s.rejected), "count");
    r->set("hyper.auction_rounds_per_epoch",
           s.epochs ? static_cast<double>(s.auctionRounds) /
                          static_cast<double>(s.epochs)
                    : 0.0,
           "rounds/epoch");
    r->attempted += s.arrivals;
    r->failed += s.rejected;
    return secs;
}

/** One uninterrupted run() of the same churn: its report bytes. */
std::string
singleRunReport(UtilityOptimizer &opt,
                const fleet::WorkloadStream &stream,
                const ChurnParams &p, Result *r)
{
    auto eng = startChurn(opt, stream, p);
    eng->run();
    checkEngine(*eng, "single run()", r);
    return reportOf(*eng);
}

} // namespace

std::string
churnDigest(std::uint64_t key)
{
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    auto pm = prefillServeSurface(grid);
    AreaModel am;
    UtilityOptimizer opt(*pm, am);
    const ChurnParams p = benchChurn(key);
    const fleet::WorkloadStream stream(p.workload);
    Result unused;
    return hex64(fnv1a(singleRunReport(opt, stream, p, &unused)));
}

Result
runChurn(const Options &o)
{
    Result r;
    const std::uint64_t key = referenceKey(o.seed);
    const ChurnParams p = benchChurn(key);
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();

    const std::string planted =
        plantWarmCache(grid, kServeInstructions, kServeSeed, &r);
    const Clock::time_point t0 = Clock::now();
    auto pm = prefillServeSurface(grid);
    const double prefillSecs = since(t0);
    AreaModel am;
    UtilityOptimizer opt(*pm, am);
    const fleet::WorkloadStream stream(p.workload);
    r.markFirstOp();
    if (o.setupOnly)
        return r;

    std::string stepped;
    if (o.trace) {
        std::vector<double> epochMs;
        auto base = startChurn(opt, stream, p);
        const double untraced = stepChurn(*base, p, &epochMs);
        const std::string baseReport = reportOf(*base);
        base.reset();

        enableTracing();
        std::vector<exec::SweepResult> prefilled;
        pm->performanceBatch(grid, kWorkers).swap(prefilled);
        execLayers(grid, kServeInstructions, pm->seed(), prefillSecs,
                   prefilled, &r);
        surfaceLayers(*pm, grid, &r);
        lookupLayer(*pm, grid, o.seed, &r);
        double traced = 0.0;
        {
            Span span("churn.pass", "workload", kTrackWorkload, o.seed,
                      "seed");
            traced = churnLayers(opt, stream, p, &r, &stepped);
        }
        r.set("obs.tracing_overhead_pct",
              (traced / untraced - 1.0) * 100.0, "%");
        if (stepped != baseReport)
            r.fail("traced and untraced stepped runs differ");
    } else {
        const Clock::time_point start = Clock::now();
        std::vector<double> rates, bestMs;
        do {
            auto eng = startChurn(opt, stream, p);
            std::vector<double> epochMs;
            const double secs = stepChurn(*eng, p, &epochMs);
            rates.push_back(
                static_cast<double>(eng->stats().processed) / secs);
            if (bestMs.empty())
                bestMs = epochMs;
            else if (epochMs.size() != bestMs.size())
                r.fail("two stepped runs of one seed step differently");
            else
                for (std::size_t i = 0; i < epochMs.size(); ++i)
                    bestMs[i] = std::min(bestMs[i], epochMs[i]);
            if (rates.size() == 1)
                r.set("peak_rss_mb", peakRssMb(), "MB");
            r.attempted += eng->stats().arrivals;
            r.failed += eng->stats().rejected;
            checkEngine(*eng, "stepped run", &r);
            const std::string rep = reportOf(*eng);
            if (!stepped.empty() && rep != stepped)
                r.fail("two stepped runs of one seed differ");
            stepped = rep;
        } while (since(start) < o.seconds ||
                 rates.size() < kMinRepetitions);
        // The median rate over repetitions: one slow stretch of the host
        // moves one repetition, not the result.  Each epoch step does the
        // same work in every repetition, so it keeps its fastest time,
        // and p99 reads the heaviest epochs rather than the moments the
        // shared host was busiest.
        r.set("throughput_per_s", median(rates), "1/s");
        r.set("p50_ms", median(bestMs), "ms");
        r.set("p99_ms", quantile(bestMs, 0.99), "ms");
    }

    if (singleRunReport(opt, stream, p, &r) != stepped)
        r.fail("stepped runUntil and a single run() render different "
               "finalReport bytes");
    checkReference(o, "churn", key, hex64(fnv1a(stepped)), &r);
    checkCacheUntouched(planted, &r);
    return r;
}

} // namespace perfbench
