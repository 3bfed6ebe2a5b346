/**
 * @file
 * ssim -- the command-line face of the simulator, as the paper
 * describes it: "SSim is very flexible, allowing all critical
 * micro-architecture parameters and latencies to be set from a XML
 * configuration file.  When a simulation completes, SSim reports the
 * cycles executed for a given workload along with cache miss rates
 * and stage-based micro-architecture stalls and statistics."
 *
 * Usage (see exec/run_options.hh for the full flag reference):
 *   ssim <benchmark> [--config FILE] [--instructions N]
 *        [--slices LIST] [--banks LIST] [--seed N] [--threads N]
 *        [--json]
 *   ssim --dump-config            # print the default XML config
 *   ssim --list                   # list benchmark profiles
 *
 * Giving --slices/--banks a comma-separated list sweeps the cross
 * product on the parallel sweep engine; single values override the
 * XML config for one run, so quick experiments need no config file.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/sim_config.hh"
#include "core/perf_model.hh"
#include "core/sampling.hh"
#include "core/vm_sim.hh"
#include "exec/run_options.hh"
#include "exec/sweep.hh"
#include "fault/fault_model.hh"
#include "hyper/fabric_manager.hh"
#include "engine/fault_replay.hh"
#include "obs/obs.hh"
#include "study/metrics_report.hh"
#include "study/report.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

int
usageError(const char *prog, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n%s", prog, message.c_str(),
                 exec::runUsage(prog).c_str());
    return 1;
}

/**
 * Turn telemetry on when --trace-out/--metrics ask for it, warning
 * when the build compiled the instrumentation out (the run would
 * otherwise produce empty outputs with no hint why).
 */
void
setupObs(const exec::RunOptions &opts)
{
    if (opts.traceOut.empty() && !opts.metrics)
        return;
    obs::setEnabled(true);
    if (!obs::compiledIn()) {
        std::fprintf(stderr,
                     "warning: telemetry was compiled out of this "
                     "build; reconfigure with -DSHARCH_OBS=ON for "
                     "non-empty --trace-out/--metrics output\n");
    }
}

/**
 * Export --trace-out / --metrics after the run.  Metrics go to
 * stderr so stdout's report bytes stay identical with and without
 * the flag (the determinism contract in study/report.hh).
 */
int
finishObs(const exec::RunOptions &opts, int rc)
{
    if (opts.metrics) {
        const study::Report report = study::metricsReport(
            obs::MetricsRegistry::instance().snapshot());
        std::fputs(
            study::render(report, study::Format::Text).c_str(),
            stderr);
    }
    if (!opts.traceOut.empty()) {
        std::ofstream out(opts.traceOut,
                          std::ios::out | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot write trace to '%s'\n",
                         opts.traceOut.c_str());
            return rc ? rc : 1;
        }
        obs::Tracer::instance().writeChromeTrace(out);
    }
    return rc;
}

/** One full-detail run, the historical ssim output. */
int
runSingle(const exec::RunOptions &opts, const SimConfig &cfg,
          const BenchmarkProfile &profile)
{
    const unsigned vcores =
        profile.multithreaded ? profile.numThreads : 1;

    if (!opts.json) {
        std::printf(
            "ssim: %s on %u VCore(s) of %u Slice(s) + %u x %u KB "
            "L2, %zu instructions/thread, seed %llu\n\n",
            profile.name.c_str(), vcores, cfg.numSlices,
            cfg.numL2Banks, cfg.l2Bank.sizeBytes / 1024,
            opts.instructions,
            static_cast<unsigned long long>(cfg.seed));
    }

#if SHARCH_OBS
    // Stand up a fabric sized for this run and place each VCore on it
    // so even a single-run trace shows honest hypervisor place /
    // release decisions alongside the pipeline spans.
    std::optional<FabricManager> fabric;
    std::vector<AllocationId> placed;
    if (obs::enabled()) {
        const unsigned slices = std::max(cfg.numSlices, 1u);
        const unsigned banks = cfg.numL2Banks;
        const int w = static_cast<int>(std::max(slices, 4u));
        const unsigned runs_per_row =
            static_cast<unsigned>(w) / slices;
        const unsigned slice_rows =
            (vcores + runs_per_row - 1) / runs_per_row;
        const unsigned bank_rows =
            (banks * vcores + static_cast<unsigned>(w) - 1) /
            static_cast<unsigned>(w);
        const int h = 2 * static_cast<int>(
                              std::max({slice_rows, bank_rows, 1u}));
        fabric.emplace(w, h);
        for (unsigned i = 0; i < vcores; ++i) {
            if (const auto id = fabric->allocate(slices, banks))
                placed.push_back(*id);
        }
    }
#endif

    VmSim vm(cfg, vcores);
    vm.prewarm(profile);
    const auto sources = streamSources(
        std::make_shared<const TraceGenerator>(profile, cfg.seed),
        opts.instructions);
    VmResult res;
    if (opts.sampleSet) {
        SamplingController controller(opts.sample, cfg.seed);
        res = controller.run(vm, sources);
    } else {
        res = vm.run(sources);
    }

#if SHARCH_OBS
    if (fabric) {
        for (const AllocationId id : placed)
            fabric->release(id);
    }
#endif

    if (opts.json) {
        // The same sharch-report-v1 schema sharch-bench emits, with
        // the full SimStats spliced in as the "stats" section.
        study::Report report;
        report.id = "ssim_run";
        report.title = "ssim single run";
        report.addMeta("benchmark", profile.name);
        report.addMeta("slices", cfg.numSlices);
        report.addMeta("banks", cfg.numL2Banks);
        report.addMeta("l2_kb",
                       static_cast<unsigned long long>(
                           cfg.l2Bytes() / 1024));
        report.addMeta("instructions", opts.instructions);
        report.addMeta("seed",
                       static_cast<unsigned long long>(cfg.seed));
        report.addMeta("vcores", vcores);
        report.addMeta("cycles",
                       static_cast<unsigned long long>(res.cycles));
        report.addMeta("ipc", res.throughput());
        report.attachJson("stats", res.aggregate.toJson());
        std::fputs(
            study::render(report, study::Format::Json).c_str(),
            stdout);
        return 0;
    }

    std::printf("%s\n", res.aggregate.report().c_str());
    if (res.perVCore.size() > 1) {
        std::printf("per-VCore cycles:");
        for (const SimStats &st : res.perVCore)
            std::printf(" %llu",
                        static_cast<unsigned long long>(st.cycles));
        std::printf("\n");
    }
    std::printf("aggregate throughput: %.3f IPC\n", res.throughput());
    return 0;
}

/** Sweep the banks x slices cross product on the parallel engine. */
int
runSweep(const exec::RunOptions &opts, const SimConfig &cfg,
         const BenchmarkProfile &profile,
         const std::vector<unsigned> &banks,
         const std::vector<unsigned> &slices)
{
    if (!opts.configPath.empty()) {
        std::fprintf(stderr,
                     "warning: sweep mode uses the paper's Table 2/3 "
                     "base config; only seed/slices/banks from '%s' "
                     "apply\n",
                     opts.configPath.c_str());
    }
    PerfModel pm(opts.instructions, cfg.seed);
    if (opts.sampleSet)
        pm.setSampleMode(SampleMode::Sampled, opts.sample);
    const std::vector<exec::SweepPoint> grid =
        exec::sweepGrid(std::vector<BenchmarkProfile>{profile}, banks,
                        slices);
    const std::vector<exec::SweepResult> results =
        pm.performanceBatch(grid, opts.threads);

    if (opts.json) {
        study::Report report;
        report.id = "ssim_sweep";
        report.title = "ssim sweep";
        report.addMeta("benchmark", profile.name);
        report.addMeta("instructions", opts.instructions);
        report.addMeta("seed",
                       static_cast<unsigned long long>(cfg.seed));
        study::Table &t =
            report.addTable("sweep", "Per-VCore IPC, P(c, s)");
        t.col("benchmark", study::Value::Kind::Text)
            .col("banks", study::Value::Kind::Integer)
            .col("slices", study::Value::Kind::Integer)
            .col("ipc", study::Value::Kind::Real, 3);
        for (const exec::SweepResult &r : results)
            t.addRow({r.name, r.banks, r.slices, r.ipc});
        std::fputs(
            study::render(report, study::Format::Json).c_str(),
            stdout);
        return 0;
    }

    std::printf("ssim sweep: %s, %zu instructions/thread, seed %llu, "
                "%u thread(s)\n\n",
                profile.name.c_str(), opts.instructions,
                static_cast<unsigned long long>(cfg.seed),
                exec::resolveThreadCount(opts.threads));
    std::printf("%-10s", "L2 \\ s");
    for (unsigned s : slices)
        std::printf("    s=%-3u", s);
    std::printf("\n");
    std::size_t idx = 0;
    for (unsigned b : banks) {
        std::printf("%6uK   ", banksToKb(b));
        for (std::size_t j = 0; j < slices.size(); ++j)
            std::printf("  %7.3f", results[idx++].ipc);
        std::printf("\n");
    }
    std::printf("\nvalues are per-VCore committed IPC, P(c, s)\n");
    return 0;
}

/**
 * Replay a fault schedule against a populated fabric and report each
 * VCore's graceful degradation (re-place / shrink / evict / bank
 * substitution) plus the surviving capacity.
 */
int
runFaultReplay(const exec::RunOptions &opts, const char *prog)
{
    const fault::FaultSpec spec =
        fault::parseFaultSpec(opts.faultSpec);
    if (!spec.ok())
        return usageError(prog, "bad --inject-faults: " + spec.error);
    if (spec.empty())
        return usageError(prog,
                          "--inject-faults spec schedules no events");

    // Identical tenants (the --slices/--banks overrides, else a
    // mid-size VCore); the replay itself lives in hyper/fault_replay.
    const unsigned vslices =
        opts.slices.empty() ? 4 : opts.slices.front();
    const unsigned vbanks = opts.banks.empty() ? 4 : opts.banks.front();
    const FaultReplayResult result = replayFaults(
        spec, opts.fabricWidth, opts.fabricHeight, vslices, vbanks);

    if (opts.json) {
        std::fputs(study::render(faultReplayReport(result),
                                 study::Format::Json)
                       .c_str(),
                   stdout);
        return 0;
    }

    std::printf("ssim fault replay: %dx%d fabric, %u VCore(s) of "
                "%u Slice(s) + %u bank(s)\n\n",
                opts.fabricWidth, opts.fabricHeight, result.tenants,
                vslices, vbanks);
    for (const auto &[ev, actions] : result.events) {
        std::printf("cycle %10llu  %-5s %s (%d,%d)\n",
                    static_cast<unsigned long long>(ev.at),
                    fault::faultKindName(ev.kind),
                    ev.heal ? "heal " : "fail ", ev.tile.y,
                    ev.tile.x);
        for (const DegradeAction &a : actions) {
            std::printf("    vcore %llu %s: run (%d,%d)x%u -> "
                        "(%d,%d)x%u, -%u slice(s) -%u bank(s), "
                        "%llu cycles\n",
                        static_cast<unsigned long long>(a.id),
                        degradeKindName(a.kind), a.from.row,
                        a.from.col, a.from.count, a.to.row, a.to.col,
                        a.to.count, a.slicesLost, a.banksLost,
                        static_cast<unsigned long long>(a.cost));
        }
    }
    std::printf("\nsummary: %u replaced, %u shrunk, %u evicted; "
                "%u Slice(s) and %u bank(s) lost; %llu "
                "reconfiguration cycles\n",
                result.replaced, result.shrunk, result.evicted,
                result.slicesLost, result.banksLost,
                static_cast<unsigned long long>(
                    result.reconfigCycles));
    std::printf("fabric: %u/%u Slices faulty, %u banks faulty, "
                "%zu live VCore(s), utilization %.3f, "
                "fragmentation %.3f\n",
                result.faultySlices, result.totalSlices,
                result.faultyBanks, result.liveVCores,
                result.sliceUtilization, result.fragmentation);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const exec::RunOptions opts = exec::parseRunOptions(argc, argv);
    if (!opts.ok())
        return usageError(argv[0], opts.error);

    if (opts.dumpConfig) {
        std::fputs(simConfigToXml(SimConfig{}).c_str(), stdout);
        return 0;
    }
    if (opts.listBenchmarks) {
        for (const auto &n : benchmarkNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    setupObs(opts);

    if (!opts.faultSpec.empty())
        return finishObs(opts, runFaultReplay(opts, argv[0]));

    if (!hasProfile(opts.benchmark)) {
        std::fprintf(stderr, "unknown benchmark '%s' (try --list)\n",
                     opts.benchmark.c_str());
        return 1;
    }
    const BenchmarkProfile &profile = profileFor(opts.benchmark);

    SimConfig cfg = opts.configPath.empty()
                        ? SimConfig{}
                        : loadSimConfig(opts.configPath);
    if (opts.seedSet)
        cfg.seed = opts.seed;

    // --slices/--banks override the XML config (range-checked at
    // parse time by parseRunOptions).
    if (opts.isSweep()) {
        const std::vector<unsigned> banks =
            opts.banks.empty() ? std::vector<unsigned>{cfg.numL2Banks}
                               : opts.banks;
        const std::vector<unsigned> slices =
            opts.slices.empty() ? std::vector<unsigned>{cfg.numSlices}
                                : opts.slices;
        return finishObs(opts,
                         runSweep(opts, cfg, profile, banks, slices));
    }

    if (!opts.slices.empty())
        cfg.numSlices = opts.slices.front();
    if (!opts.banks.empty())
        cfg.numL2Banks = opts.banks.front();
    return finishObs(opts, runSingle(opts, cfg, profile));
}
