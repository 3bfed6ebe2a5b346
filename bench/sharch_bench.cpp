/**
 * @file
 * sharch-bench: the one driver for every figure/table study.
 *
 * Replaces the fourteen per-figure harness binaries.  Studies
 * self-register (see study/registry.hh); this driver only selects,
 * sweeps, runs, and renders:
 *
 *   sharch-bench --list
 *   sharch-bench --run fig13
 *   sharch-bench --run 'fig*' --format json --out reports/
 *   sharch-bench --run tab1,tab4 --instructions 2000 --seed 7
 *
 * When several studies are selected their grids are concatenated and
 * prefilled through a single PerfModel::performanceBatch(), so the
 * sweep pool is saturated once for the whole invocation instead of
 * once per binary.  Status lines go to stderr; reports go to stdout
 * (or one file per study under --out), so `sharch-bench --run fig13
 * --format json > fig13.json` stays clean.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/run_options.hh"
#include "exec/sweep.hh"
#include "obs/obs.hh"
#include "study/engine.hh"
#include "study/metrics_report.hh"
#include "study/registry.hh"
#include "study/report.hh"
#include "study/surface.hh"

using namespace sharch;

namespace {

/**
 * Write the current metrics snapshot as <name>.metrics.json under
 * @p dir, then reset the registry so the next study's counts start
 * from zero (per-study attribution).
 */
bool
dumpMetrics(const std::string &dir, const std::string &name)
{
    auto &registry = obs::MetricsRegistry::instance();
    const study::Report report =
        study::metricsReport(registry.snapshot());
    registry.reset();
    const std::filesystem::path path =
        std::filesystem::path(dir) / (name + ".metrics.json");
    std::ofstream out(path, std::ios::binary);
    out << study::render(report, study::Format::Json);
    if (!out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     path.string().c_str());
        return false;
    }
    std::fprintf(stderr, "[metrics] %s\n", path.string().c_str());
    return true;
}

/** The studies matching any of @p patterns, deduplicated, sorted. */
std::vector<study::Study *>
selectStudies(const std::vector<std::string> &patterns,
              std::string *unmatched)
{
    std::vector<study::Study *> selected;
    for (const std::string &pattern : patterns) {
        const auto matches =
            study::StudyRegistry::instance().match(pattern);
        if (matches.empty() && unmatched->empty())
            *unmatched = pattern;
        for (study::Study *s : matches) {
            if (std::find(selected.begin(), selected.end(), s) ==
                selected.end()) {
                selected.push_back(s);
            }
        }
    }
    std::sort(selected.begin(), selected.end(),
              [](const study::Study *a, const study::Study *b) {
                  return a->name() < b->name();
              });
    return selected;
}

void
listStudies()
{
    for (const study::Study *s :
         study::StudyRegistry::instance().all()) {
        std::printf("%-18s %s\n", s->name().c_str(),
                    s->description().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const exec::BenchOptions opts =
        exec::parseBenchOptions(argc, argv);
    if (!opts.ok()) {
        std::fprintf(stderr, "error: %s\n%s", opts.error.c_str(),
                     exec::benchUsage(argv[0]).c_str());
        return 2;
    }

    if (opts.list) {
        listStudies();
        if (opts.patterns.empty())
            return 0;
    }

    std::string unmatched;
    const std::vector<study::Study *> selected =
        selectStudies(opts.patterns, &unmatched);
    if (!unmatched.empty()) {
        std::fprintf(stderr, "error: no study matches '%s' "
                     "(try --list)\n", unmatched.c_str());
        return 2;
    }
    if (selected.empty())
        return 0;

    study::Format format = study::Format::Text;
    study::parseFormat(opts.format, &format); // parser validated it

    if (!opts.metricsOut.empty() || !opts.traceOut.empty()) {
        obs::setEnabled(true);
        if (!obs::compiledIn()) {
            std::fprintf(stderr,
                         "warning: telemetry was compiled out of "
                         "this build; reconfigure with "
                         "-DSHARCH_OBS=ON for non-empty "
                         "--metrics-out/--trace-out output\n");
        }
    }
    if (!opts.metricsOut.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.metricsOut, ec);
        if (ec) {
            std::fprintf(stderr, "error: cannot create '%s': %s\n",
                         opts.metricsOut.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    study::EngineOptions engine;
    engine.instructions = opts.instructions;
    engine.seed = opts.seed;
    engine.threads = exec::resolveThreadCount(opts.threads);
    engine.sample = opts.sample;
    engine.sampleSet = opts.sampleSet;

    PerfModel pm(engine.instructions, engine.seed);
    if (opts.sampleSet)
        pm.setSampleMode(SampleMode::Sampled, opts.sample);
    // No-op (with a note) for sampled models: estimates must not mix
    // with the exact rows other invocations share.
    study::enableSharedDiskCache(pm);

    // One batch for the union of the selected grids; each study's own
    // prefill inside runStudy() then hits only the memo.
    const auto grid = study::unionGrid(selected);
    if (!grid.empty()) {
        const study::PrefillStats ps =
            study::prefillSurface(pm, grid, engine.threads);
        std::fprintf(stderr,
                     "[sweep] %zu point(s): %zu simulated, %zu "
                     "cached, %u thread(s), %.1fs\n",
                     ps.points, ps.simulated, ps.cached, ps.threads,
                     ps.seconds);
    }
    // The shared prefill's telemetry belongs to no single study;
    // dump it under its own name so per-study files stay honest.
    if (!opts.metricsOut.empty() &&
        !dumpMetrics(opts.metricsOut, "_prefill")) {
        return 1;
    }

    if (!opts.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        if (ec) {
            std::fprintf(stderr, "error: cannot create '%s': %s\n",
                         opts.outDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    bool first = true;
    for (study::Study *s : selected) {
        std::fprintf(stderr, "[run] %s\n", s->name().c_str());
        const study::Report report = study::runStudy(*s, pm, engine);
        const std::string text = study::render(report, format);

        if (opts.outDir.empty()) {
            if (!first && format == study::Format::Text)
                std::printf("\n");
            std::fputs(text.c_str(), stdout);
        } else {
            const std::filesystem::path path =
                std::filesystem::path(opts.outDir) /
                (s->name() + "." +
                 study::formatExtension(format));
            std::ofstream out(path, std::ios::binary);
            out << text;
            if (!out) {
                std::fprintf(stderr, "error: cannot write '%s'\n",
                             path.string().c_str());
                return 1;
            }
            std::fprintf(stderr, "[out] %s\n",
                         path.string().c_str());
        }
        if (!opts.metricsOut.empty() &&
            !dumpMetrics(opts.metricsOut, s->name())) {
            return 1;
        }
        first = false;
    }

    if (!opts.traceOut.empty()) {
        std::ofstream out(opts.traceOut,
                          std::ios::out | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "error: cannot write trace to "
                         "'%s'\n", opts.traceOut.c_str());
            return 1;
        }
        obs::Tracer::instance().writeChromeTrace(out);
        std::fprintf(stderr, "[trace] %s\n", opts.traceOut.c_str());
    }
    return 0;
}
