/**
 * @file
 * The `serve` workload: the journaled single-chip service.
 *
 * One closed-loop client sends a seeded script of kRequests request
 * lines to ServeSession::handle over an AllocationEngine on the
 * default 8x8 chip, built the way `sharch-serve --journal DIR` builds
 * it (fsync every record, rotate every 1024).  The mix is ~45%
 * allocate (budget + paper benchmark), ~40% release, ~5% reshape of a
 * lease id read from an earlier allocate reply, ~5% price and ~5%
 * stats; a cap on live tenants keeps the chip from refusing
 * allocations.  The surface is prefilled in set-up, so request time
 * goes to parsing, engine dispatch, per-record fsync and snapshot
 * rotation (and, for price, the auction).
 *
 * Checks: no reply is "ok":false, and reopening each run's journal
 * directory into a fresh engine renders the live engine's
 * finalReport() bytes and passes checkInvariants().
 */

#include <array>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "area/area_model.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "engine/allocation_engine.hh"
#include "engine/journal.hh"
#include "engine/serve_session.hh"
#include "study/surface.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sharch;

namespace {

constexpr std::size_t kRequests = 20000;
constexpr std::size_t kLiveCap = 10;

enum Op : unsigned { kAllocate, kRelease, kReshape, kPrice, kStats };
constexpr std::size_t kOps = 5;
constexpr const char *kOpNames[kOps] = {"allocate", "release", "reshape",
                                        "price", "stats"};
constexpr const char *kOpSpans[kOps] = {
    "serve.allocate", "serve.release", "serve.reshape", "serve.price",
    "serve.stats"};

/** One scripted request; lease ids are resolved when it is sent. */
struct ServeOp
{
    Op op = kStats;
    unsigned tenant = 0;
    unsigned slices = 1;
    unsigned banks = 1;
    std::string benchmark;
    UtilityKind utility = UtilityKind::Throughput;
    double budget = 0.0;
    Cycles at = 0;
};

/** Script @p rep of a run with seed @p seed: @p n requests. */
std::vector<ServeOp>
serveScript(std::uint64_t seed, std::uint64_t rep, std::size_t n)
{
    constexpr UtilityKind kinds[] = {UtilityKind::Throughput,
                                     UtilityKind::Balanced,
                                     UtilityKind::SingleStream};
    const std::vector<std::string> names = benchmarkNames();
    Rng rng((seed * 0x2545f4914f6cdd1dULL + 7) ^ (rep << 48));
    std::vector<unsigned> live;
    unsigned next = 0;
    std::vector<ServeOp> script(n);
    for (std::size_t i = 0; i < n; ++i) {
        ServeOp &s = script[i];
        s.at = 100 * (i + 1);
        const std::uint64_t roll = rng.nextBounded(100);
        s.op = roll < 45   ? kAllocate
               : roll < 85 ? kRelease
               : roll < 90 ? kReshape
               : roll < 95 ? kPrice
                           : kStats;
        if (s.op == kAllocate && live.size() >= kLiveCap)
            s.op = kRelease;
        if ((s.op == kRelease || s.op == kReshape) && live.empty())
            s.op = kAllocate;
        switch (s.op) {
          case kAllocate:
            s.tenant = next++;
            live.push_back(s.tenant);
            s.slices = 1 + static_cast<unsigned>(rng.nextBounded(2));
            s.banks = 1 + static_cast<unsigned>(rng.nextBounded(2));
            s.benchmark = names[rng.nextBounded(names.size())];
            s.utility = kinds[rng.nextBounded(3)];
            s.budget = 4.0 + 20.0 * rng.nextDouble();
            break;
          case kRelease: {
            const std::size_t k = rng.nextBounded(live.size());
            s.tenant = live[k];
            live[k] = live.back();
            live.pop_back();
            break;
          }
          case kReshape:
            s.tenant = live[rng.nextBounded(live.size())];
            s.slices = 1 + static_cast<unsigned>(rng.nextBounded(2));
            s.banks = 1 + static_cast<unsigned>(rng.nextBounded(2));
            break;
          case kPrice:
          case kStats:
            break;
        }
    }
    return script;
}

std::string
render(const ServeOp &s,
       const std::unordered_map<unsigned, std::uint64_t> &leases)
{
    char buf[320];
    switch (s.op) {
      case kAllocate:
        std::snprintf(buf, sizeof(buf),
                      "{\"op\":\"allocate\",\"tenant\":\"u%u\","
                      "\"slices\":%u,\"banks\":%u,\"budget\":%.4f,"
                      "\"benchmark\":\"%s\",\"utility\":\"%s\","
                      "\"at\":%llu}",
                      s.tenant, s.slices, s.banks, s.budget,
                      s.benchmark.c_str(), utilityName(s.utility),
                      static_cast<unsigned long long>(s.at));
        break;
      case kRelease:
        std::snprintf(buf, sizeof(buf),
                      "{\"op\":\"release\",\"tenant\":\"u%u\","
                      "\"at\":%llu}",
                      s.tenant, static_cast<unsigned long long>(s.at));
        break;
      case kReshape: {
        const auto it = leases.find(s.tenant);
        std::snprintf(buf, sizeof(buf),
                      "{\"op\":\"reshape\",\"lease\":%llu,"
                      "\"slices\":%u,\"banks\":%u}",
                      static_cast<unsigned long long>(
                          it == leases.end() ? 0 : it->second),
                      s.slices, s.banks);
        break;
      }
      case kPrice:
        std::snprintf(buf, sizeof(buf), "{\"op\":\"price\",\"at\":%llu}",
                      static_cast<unsigned long long>(s.at));
        break;
      case kStats:
        std::snprintf(buf, sizeof(buf), "{\"op\":\"stats\"}");
        break;
    }
    return buf;
}

/** What one pass of the script through a session observed. */
struct ServePass
{
    std::vector<double> us;          //!< handle() time per request
    std::array<std::vector<double>, kOps> opUs;
    std::array<std::uint64_t, kOps> failed{};
    std::uint64_t requests = 0;
    double seconds = 0.0;            //!< the whole closed loop
    std::vector<std::string> lines;  //!< requests as sent
    std::vector<Market> prices;      //!< after each price request
};

ServePass
runPass(engine::AllocationEngine &eng, engine::Journal *journal,
        const std::vector<ServeOp> &script)
{
    engine::ServeSession session(eng);
    session.setJournal(journal);
    std::unordered_map<unsigned, std::uint64_t> leases;
    ServePass pass;
    pass.us.reserve(script.size());
    pass.lines.reserve(script.size());
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < script.size(); ++i) {
        const ServeOp &s = script[i];
        pass.lines.push_back(render(s, leases));
        const std::uint64_t t0 = nowNs();
        const std::string reply = session.handle(pass.lines.back());
        const std::uint64_t t1 = nowNs();
        recordSpan(kOpSpans[s.op], "serve", kTrackServe, t0, t1, i,
                   "request");
        const double us = static_cast<double>(t1 - t0) / 1e3;
        pass.us.push_back(us);
        pass.opUs[s.op].push_back(us);
        if (reply.compare(0, 10, "{\"ok\":true") != 0) {
            pass.failed[s.op]++;
            continue;
        }
        if (s.op == kAllocate) {
            const std::size_t at = reply.find("\"lease\":");
            if (at != std::string::npos)
                leases[s.tenant] =
                    std::strtoull(reply.c_str() + at + 8, nullptr, 10);
        } else if (s.op == kRelease) {
            leases.erase(s.tenant);
        } else if (s.op == kPrice) {
            pass.prices.push_back(eng.market().prices());
        }
    }
    pass.seconds = since(start);
    pass.requests = script.size();
    return pass;
}

engine::JournalConfig
journalConfig(const std::string &dir)
{
    engine::JournalConfig cfg; // fsync 1, rotate 1024: sharch-serve's
    cfg.dir = dir;
    return cfg;
}

/** Open a fresh journal directory on @p eng. */
void
openFresh(engine::Journal &journal, engine::EngineBase &eng, Result *r)
{
    std::filesystem::remove_all(journal.config().dir);
    engine::JournalRecovery rec;
    std::string err;
    if (!journal.open(eng, &rec, &err) || !rec.fresh)
        r->fail("journal open on a fresh directory failed: " + err);
}

/**
 * Reopen @p dir into a fresh engine; it must render @p live's report
 * bytes.  Then @p rotations direct Journal::rotate() calls publish
 * the recovered end state, their times into @p rotateMs.  The
 * directory is removed afterwards.  @return the recovery time.
 */
double
checkRecovery(UtilityOptimizer &opt, const std::string &dir,
              const engine::AllocationEngine &live,
              std::uint64_t *replayed, int rotations,
              std::vector<double> *rotateMs, Result *r)
{
    engine::AllocationEngine fresh(opt, engine::EngineConfig{});
    engine::Journal journal(journalConfig(dir));
    engine::JournalRecovery rec;
    std::string err;
    const std::uint64_t t0 = nowNs();
    const bool ok = journal.open(fresh, &rec, &err);
    const std::uint64_t t1 = nowNs();
    recordSpan("journal.recover", "journal", kTrackProbe, t0, t1,
               rec.replayed, "replayed");
    *replayed = rec.replayed;
    if (!ok) {
        r->fail("journal recovery failed: " + err);
    } else if (study::renderJson(fresh.finalReport()) !=
               study::renderJson(live.finalReport())) {
        r->fail("recovered engine renders a different finalReport");
    } else if (!fresh.checkInvariants(&err)) {
        r->fail("recovered engine fails checkInvariants: " + err);
    }
    for (int i = 0; ok && i < rotations; ++i) {
        const std::uint64_t a = nowNs();
        if (!journal.rotate(&err))
            r->fail("journal rotate failed: " + err);
        const std::uint64_t b = nowNs();
        recordSpan("journal.rotate", "journal", kTrackProbe, a, b, i,
                   "rotation");
        rotateMs->push_back(static_cast<double>(b - a) / 1e6);
    }
    journal.close();
    std::filesystem::remove_all(dir);
    return static_cast<double>(t1 - t0) / 1e9;
}

/**
 * The serve path's per-layer metrics from one traced pass of
 * @p script.  @return the traced pass's closed-loop seconds.
 */
double
serveLayers(UtilityOptimizer &opt, const std::vector<ServeOp> &script,
            Result *r)
{
    const std::string dir = "journal-traced";
    engine::AllocationEngine eng(opt, engine::EngineConfig{});
    engine::Journal journal(journalConfig(dir));
    openFresh(journal, eng, r);
    const ServePass pass = runPass(eng, &journal, script);
    const std::uint64_t rotations = journal.generation();
    const std::uint64_t records = journal.appended();

    // The tail that holds the rotation stalls (10 samples beyond it in
    // a 20k-request script): a per-layer number, too wide to gate.
    r->set("serve.request_p9995_us", quantile(pass.us, 0.9995), "us");
    for (std::size_t k = 0; k < kOps; ++k) {
        const std::string name = std::string("serve.") + kOpNames[k];
        r->set(name + "_p50_us", median(pass.opUs[k]), "us");
        r->set(name + "_p99_us", quantile(pass.opUs[k], 0.99), "us");
        r->set(name + "_failed", static_cast<double>(pass.failed[k]),
               "count");
    }

    journal.close();

    std::vector<double> saveMs, restoreMs;
    std::size_t bytes = 0;
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t t0 = nowNs();
        const std::string doc = eng.saveState();
        const std::uint64_t t1 = nowNs();
        engine::AllocationEngine fresh(opt, engine::EngineConfig{});
        std::string err;
        const std::uint64_t t2 = nowNs();
        if (!fresh.restoreState(doc, &err))
            r->fail("end-of-serve state does not restore: " + err);
        const std::uint64_t t3 = nowNs();
        recordSpan("engine.save_state", "engine", kTrackProbe, t0, t1,
                   doc.size(), "bytes");
        recordSpan("engine.restore_state", "engine", kTrackProbe, t2, t3,
                   doc.size(), "bytes");
        saveMs.push_back(static_cast<double>(t1 - t0) / 1e6);
        restoreMs.push_back(static_cast<double>(t3 - t2) / 1e6);
        bytes = doc.size();
    }
    r->set("engine.save_state_ms", median(saveMs), "ms");
    r->set("engine.restore_state_ms", median(restoreMs), "ms");
    r->set("engine.state_bytes", static_cast<double>(bytes), "B");

    // Recovery replays the last segment's tail; the recovered end
    // state is then published by direct rotations.
    std::uint64_t replayed = 0;
    std::vector<double> rotateMs;
    const double recover =
        checkRecovery(opt, dir, eng, &replayed, 5, &rotateMs, r);
    r->set("journal.recover_ms", recover * 1e3, "ms");
    r->set("journal.rotate_ms", median(rotateMs), "ms");

    // The same script with no journal: the journal's share per op.
    engine::AllocationEngine bare(opt, engine::EngineConfig{});
    const ServePass unjournaled = runPass(bare, nullptr, script);
    r->set("journal.per_op_us", median(pass.us) - median(unjournaled.us),
           "us");

    std::vector<double> parseUs;
    {
        Span span("common.json_parse", "common", kTrackProbe,
                  pass.lines.size(), "lines");
        for (const std::string &line : pass.lines) {
            json::Value v;
            std::string err;
            const std::uint64_t t0 = nowNs();
            json::parse(line, &v, &err);
            parseUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        }
    }
    r->set("common.json_parse_us", median(parseUs), "us");

    const engine::EngineStats &s = eng.stats();
    r->set("journal.rotations", static_cast<double>(rotations), "count");
    r->set("journal.records", static_cast<double>(records), "count");
    r->set("journal.replayed", static_cast<double>(replayed), "count");
    r->set("engine.events", static_cast<double>(s.processed), "count");
    r->set("engine.epochs", static_cast<double>(s.epochs), "count");
    r->set("engine.auction_rounds",
           static_cast<double>(s.auctionRounds), "count");
    r->set("engine.rejected", static_cast<double>(s.rejected), "count");
    r->set("hyper.auction_rounds_per_epoch",
           s.epochs ? static_cast<double>(s.auctionRounds) /
                          static_cast<double>(s.epochs)
                    : 0.0,
           "rounds/epoch");
    marketStepLayer(opt, eng.market().snapshot(), r);
    std::vector<Bidder> bidders;
    for (const ServeOp &op : script) {
        if (op.op == kAllocate && bidders.size() < 300)
            bidders.push_back(Bidder{op.benchmark, op.utility,
                                     op.budget});
    }
    std::vector<Market> prices(
        pass.prices.end() -
            std::min<std::size_t>(8, pass.prices.size()),
        pass.prices.end());
    utilityLayer(opt, bidders, prices, r);
    r->attempted += pass.requests;
    for (std::uint64_t f : pass.failed)
        r->failed += f;
    return pass.seconds;
}

} // namespace

Result
runServe(const Options &o)
{
    Result r;
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    const std::string planted =
        plantWarmCache(grid, kServeInstructions, kServeSeed, &r);
    const Clock::time_point t0 = Clock::now();
    auto pm = prefillServeSurface(grid);
    const double prefillSecs = since(t0);
    AreaModel am;
    UtilityOptimizer opt(*pm, am);

    if (o.trace) {
        const std::vector<ServeOp> script =
            serveScript(o.seed, 0, kRequests);
        // Untraced baseline pass for the tracing overhead.
        engine::AllocationEngine base(opt, engine::EngineConfig{});
        engine::Journal journal(journalConfig("journal-base"));
        openFresh(journal, base, &r);
        const double untraced = runPass(base, &journal, script).seconds;
        journal.close();
        std::filesystem::remove_all("journal-base");

        enableTracing();
        std::vector<exec::SweepResult> prefilled;
        pm->performanceBatch(grid, kWorkers).swap(prefilled);
        execLayers(grid, kServeInstructions, pm->seed(), prefillSecs,
                   prefilled, &r);
        surfaceLayers(*pm, grid, &r);
        lookupLayer(*pm, grid, o.seed, &r);
        double traced = 0.0;
        {
            Span span("serve.pass", "workload", kTrackWorkload, o.seed,
                      "seed");
            traced = serveLayers(opt, script, &r);
        }
        r.set("obs.tracing_overhead_pct",
              (traced / untraced - 1.0) * 100.0, "%");
    } else {
        const Clock::time_point start = Clock::now();
        std::vector<double> rates, p50s, p99s;
        std::uint64_t rep = 0;
        do {
            // Each repetition sends its own script, so one run pools
            // several seeded sessions.
            const std::vector<ServeOp> script =
                serveScript(o.seed, rep, kRequests);
            const std::string dir = "journal-" + std::to_string(rep++);
            engine::AllocationEngine eng(opt, engine::EngineConfig{});
            engine::Journal journal(journalConfig(dir));
            openFresh(journal, eng, &r);
            if (rep == 1) {
                // Set-up ends with the first journal open.
                r.markFirstOp();
                if (o.setupOnly) {
                    journal.close();
                    std::filesystem::remove_all(dir);
                    return r;
                }
            }
            const ServePass pass = runPass(eng, &journal, script);
            journal.close();
            rates.push_back(static_cast<double>(pass.requests) /
                            pass.seconds);
            p50s.push_back(median(pass.us) / 1e3);
            p99s.push_back(quantile(pass.us, 0.99) / 1e3);
            if (rep == 1)
                r.set("peak_rss_mb", peakRssMb(), "MB");
            r.attempted += pass.requests;
            for (std::uint64_t f : pass.failed)
                r.failed += f;
            std::uint64_t replayed = 0;
            std::vector<double> unused;
            checkRecovery(opt, dir, eng, &replayed, 0, &unused, &r);
        } while (since(start) < o.seconds);
        r.set("throughput_per_s", median(rates), "1/s");
        r.set("p50_ms", median(p50s), "ms");
        r.set("p99_ms", median(p99s), "ms");
    }
    if (r.failed > 0)
        r.fail(std::to_string(r.failed) + " request(s) answered "
               "\"ok\":false");
    checkCacheUntouched(planted, &r);
    return r;
}

} // namespace perfbench
