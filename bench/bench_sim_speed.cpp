/**
 * @file
 * Microbenchmarks of the simulation substrate: trace generation,
 * cache model, network scheduling, end-to-end SSim throughput
 * (simulated instructions per second), and the parallel sweep.
 *
 * Timing is hand-rolled: each kernel is warmed once and then run in
 * batches until a minimum wall-clock interval has elapsed, and the
 * table reports the steady-state rate.  The reported numbers are
 * inherently machine- and load-dependent -- unlike every other study
 * this one is NOT reproducible bit-for-bit, which is why it should
 * never be used as a golden file.
 */

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_model.hh"
#include "common/random.hh"
#include "common/scheduling.hh"
#include "core/perf_model.hh"
#include "core/sampling.hh"
#include "core/vm_sim.hh"
#include "exec/sweep.hh"
#include "study/registry.hh"
#include "study/study.hh"
#include "trace/generator.hh"
#include "trace/inst_source.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

/** Keep the optimizer from discarding a benchmarked computation. */
volatile std::uint64_t g_sink = 0;

/**
 * Run @p body (which returns an item count) repeatedly until at
 * least 50 ms have elapsed, and report {items, seconds}.
 */
template <typename Body>
std::pair<std::uint64_t, double>
measure(Body &&body)
{
    using clock = std::chrono::steady_clock;
    constexpr double kMinSeconds = 0.05;

    body(); // warm-up: touch code, caches, and any lazy state
    std::uint64_t items = 0;
    const clock::time_point start = clock::now();
    clock::time_point now = start;
    do {
        items += body();
        now = clock::now();
    } while (std::chrono::duration<double>(now - start).count() <
             kMinSeconds);
    return {items, std::chrono::duration<double>(now - start).count()};
}

void
addRateRow(study::Table &t, const std::string &kernel,
           std::uint64_t param, std::pair<std::uint64_t, double> m)
{
    t.addRow({kernel, param, m.first, m.second,
              m.second > 0.0 ? m.first / m.second : 0.0});
}

class SimSpeedStudy final : public study::Study
{
  public:
    std::string
    name() const override
    {
        return "sim_speed";
    }

    std::string
    description() const override
    {
        return "Simulator throughput microbenchmarks (wall-clock, "
               "not reproducible)";
    }

    void
    run(study::ReportContext &ctx) override
    {
        study::Table &t = ctx.report.addTable(
            "sim_speed", "Substrate kernel throughput");
        t.col("kernel", study::Value::Kind::Text)
            .col("param", study::Value::Kind::Integer)
            .col("items", study::Value::Kind::Integer)
            .col("seconds", study::Value::Kind::Real, 4)
            .col("items_per_sec", study::Value::Kind::Real, 0);

        const BenchmarkProfile &p = profileFor("gcc");

        for (std::size_t n : {std::size_t(10000),
                              std::size_t(100000)}) {
            TraceGenerator gen(p, 1);
            addRateRow(t, "trace_generation", n, measure([&] {
                Trace tr = gen.generate(n);
                g_sink = g_sink + tr.instructions.size();
                return static_cast<std::uint64_t>(n);
            }));
        }

        // The same instruction stream pulled through the fused
        // (streaming) path: no Trace vector is ever materialized, the
        // consumer drains window()/consume() batches directly.
        for (std::size_t n : {std::size_t(10000),
                              std::size_t(100000)}) {
            TraceGenerator gen(p, 1);
            addRateRow(t, "trace_generation_fused", n, measure([&] {
                StreamingTraceSource src(gen, n);
                std::uint64_t acc = 0;
                while (!src.exhausted()) {
                    std::size_t avail = 0;
                    const TraceInst *w = src.window(avail);
                    for (std::size_t i = 0; i < avail; ++i)
                        acc += w[i].pc;
                    src.consume(avail);
                }
                g_sink = g_sink + acc;
                return static_cast<std::uint64_t>(n);
            }));
        }

        {
            CacheConfig cfg{64 * 1024, 64, 4, 4};
            CacheModel cache(cfg);
            Rng rng(7);
            addRateRow(t, "cache_model", 0, measure([&] {
                for (unsigned i = 0; i < 1024; ++i)
                    g_sink = g_sink + cache.access(
                        rng.nextBounded(1 << 22) * 8, false).hit;
                return std::uint64_t(1024);
            }));
        }

        {
            SlottedPort port(1);
            Rng rng(3);
            Cycles base = 0;
            addRateRow(t, "slotted_port", 0, measure([&] {
                for (unsigned i = 0; i < 1024; ++i) {
                    g_sink = g_sink +
                        port.schedule(base + rng.nextBounded(64));
                    ++base;
                }
                return std::uint64_t(1024);
            }));
        }

        // End-to-end throughput in the default (streaming) mode: the
        // trace is generated inside the sim loop, one refill buffer
        // at a time, never materialized.
        {
            TraceGenerator gen(p, 1);
            for (unsigned slices : {1u, 4u, 8u}) {
                addRateRow(t, "end_to_end", slices, measure([&] {
                    SimConfig cfg;
                    cfg.numSlices = slices;
                    cfg.numL2Banks = 4;
                    VmSim vm(cfg, 1);
                    std::vector<std::unique_ptr<InstSource>> sources;
                    sources.push_back(
                        std::make_unique<StreamingTraceSource>(gen,
                                                               20000));
                    VmResult res = vm.run(sources);
                    g_sink = g_sink + res.cycles;
                    return std::uint64_t(20000);
                }));
            }
        }

        // Replay of a pre-generated trace: VmSim::run() over a Trace
        // vector, re-simulated each iteration.  The gap between this
        // and end_to_end is the vector traffic that streaming the
        // trace into the sim loop avoids.
        {
            TraceGenerator gen(p, 1);
            const Trace trace = gen.generate(20000);
            for (unsigned slices : {1u, 4u, 8u}) {
                addRateRow(t, "end_to_end_replay", slices, measure([&] {
                    SimConfig cfg;
                    cfg.numSlices = slices;
                    cfg.numL2Banks = 4;
                    VmSim vm(cfg, 1);
                    VmResult res = vm.run({trace});
                    g_sink = g_sink + res.cycles;
                    return std::uint64_t(20000);
                }));
            }
        }

        // The functional fast-forward alone: architectural warm
        // state (cache tags, predictor, mem-dep history) advances,
        // no timing.  This is the floor for sampled throughput --
        // the sampled rate approaches it as U/(W+M) grows.
        {
            TraceGenerator gen(p, 1);
            for (unsigned slices : {1u, 4u, 8u}) {
                addRateRow(t, "functional_fastforward", slices,
                           measure([&] {
                    SimConfig cfg;
                    cfg.numSlices = slices;
                    cfg.numL2Banks = 4;
                    VmSim vm(cfg, 1);
                    StreamingTraceSource src(gen, 200000);
                    while (vm.vcore(0).fastForward(src, 2000) > 0) {
                    }
                    g_sink = g_sink + vm.vcore(0).warmStateDigest();
                    return std::uint64_t(200000);
                }));
            }
        }

        // End-to-end SMARTS-sampled throughput at the default U:W:M
        // schedule (--sample): detailed warm-up + measure windows,
        // functional fast-forward between them, extrapolated stats.
        {
            TraceGenerator gen(p, 1);
            for (unsigned slices : {1u, 4u, 8u}) {
                addRateRow(t, "end_to_end_sampled", slices,
                           measure([&] {
                    SimConfig cfg;
                    cfg.numSlices = slices;
                    cfg.numL2Banks = 4;
                    VmSim vm(cfg, 1);
                    std::vector<std::unique_ptr<InstSource>> sources;
                    sources.push_back(
                        std::make_unique<StreamingTraceSource>(gen,
                                                               20000));
                    SamplingController controller(
                        kDefaultSampleSchedule, 1);
                    VmResult res = controller.run(vm, sources);
                    g_sink = g_sink + res.cycles;
                    return std::uint64_t(20000);
                }));
            }
        }

        // The acceptance workload in miniature: a multi-benchmark
        // grid batched through PerfModel::performanceBatch with a
        // varying worker count.  A fresh model per iteration keeps
        // the memo from hiding the simulation cost.
        {
            const auto grid = exec::sweepGrid(
                {std::string("gcc"), "hmmer", "sjeng"}, {0, 2, 8},
                exec::sliceRange(4));
            // On a single-core host the multi-worker rows measure
            // nothing but scheduling overhead and would bake
            // "negative scaling" into a committed baseline; emit the
            // 1-thread row only and say so.
            const unsigned hw = std::thread::hardware_concurrency();
            for (unsigned threads : {1u, 2u, 4u, 8u}) {
                if (hw == 1 && threads > 1)
                    continue;
                addRateRow(t, "parallel_sweep", threads, measure([&] {
                    PerfModel pm(8000);
                    auto results = pm.performanceBatch(grid, threads);
                    g_sink = g_sink + results.size();
                    return static_cast<std::uint64_t>(grid.size());
                }));
            }
            if (hw == 1) {
                ctx.report.addNote(
                    "hardware_concurrency() == 1: multi-thread "
                    "parallel_sweep rows omitted (they would only "
                    "measure scheduling overhead).");
            }
        }

        ctx.report.addNote(
            "wall-clock rates depend on the host machine and load; "
            "do not diff this report across runs.");
    }
};

} // namespace

SHARCH_REGISTER_STUDY(SimSpeedStudy)
