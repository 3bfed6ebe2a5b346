/**
 * @file
 * Sampling accuracy: the fig13-shaped sweep (all benchmarks x L2
 * sizes on a two-Slice VCore) run both ways -- full detailed timing
 * and SMARTS-sampled with the default U:W:M schedule -- reporting
 * per-point relative IPC error.
 *
 * This is the validation study behind the sampled mode: the CI
 * `sampling-accuracy` job fails if any point's relative error
 * exceeds the tolerance (the `points_exceeding_tolerance` row must
 * stay 0).  The full side reads the shared prefilled surface; the
 * sampled side runs its own PerfModel in SampleMode::Sampled, which
 * by design never touches the shared disk cache.
 */

#include <algorithm>
#include <cmath>

#include "core/perf_model.hh"
#include "core/sampling.hh"
#include "study/registry.hh"
#include "study/study.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

constexpr unsigned kSlices = 2;

/** CI gate: no sweep point may be off by more than this. */
constexpr double kTolerancePct = 2.0;

class SamplingAccuracyStudy final : public study::Study
{
  public:
    std::string
    name() const override
    {
        return "sampling_accuracy";
    }

    std::string
    description() const override
    {
        return "Sampled vs. full IPC on the fig13 sweep (relative "
               "error per point)";
    }

    std::vector<exec::SweepPoint>
    grid() const override
    {
        // The full side of the comparison: identical to fig13's grid
        // so the shared prefill covers it (and fig13 itself rides
        // free when both studies are selected).
        return exec::sweepGrid(benchmarkNames(), l2BankGrid(),
                               {kSlices});
    }

    void
    run(study::ReportContext &ctx) override
    {
        // The sampled twin of ctx.pm: same surface identity
        // (instructions, seed), only the estimator differs.  Batched
        // so accuracy runs saturate the pool too.
        PerfModel sampled(ctx.instructions, ctx.seed);
        sampled.setSampleMode(SampleMode::Sampled,
                              kDefaultSampleSchedule);
        const std::vector<exec::SweepPoint> points = grid();
        const std::vector<exec::SweepResult> estimates =
            sampled.performanceBatch(points, ctx.threads);

        study::Table &t = ctx.report.addTable(
            "accuracy", "Per-point sampled vs. full IPC");
        t.col("benchmark", study::Value::Kind::Text)
            .col("l2_kb", study::Value::Kind::Integer)
            .col("full_ipc", study::Value::Kind::Real, 4)
            .col("sampled_ipc", study::Value::Kind::Real, 4)
            .col("rel_err_pct", study::Value::Kind::Real, 3);

        double maxErr = 0.0, sumErr = 0.0;
        unsigned exceeding = 0;
        for (const exec::SweepResult &est : estimates) {
            const double full =
                ctx.pm.performance(est.name, est.banks, est.slices);
            const double err =
                100.0 * std::abs(est.ipc - full) / full;
            maxErr = std::max(maxErr, err);
            sumErr += err;
            if (err > kTolerancePct)
                ++exceeding;
            t.addRow({est.name, banksToKb(est.banks), full, est.ipc,
                      err});
        }

        study::Table &s = ctx.report.addTable(
            "summary", "Aggregate accuracy (gate: exceeding == 0)");
        s.col("metric", study::Value::Kind::Text)
            .col("value", study::Value::Kind::Real, 3);
        s.addRow({"points_total",
                  static_cast<double>(estimates.size())});
        s.addRow({"points_exceeding_tolerance",
                  static_cast<double>(exceeding)});
        s.addRow({"tolerance_pct", kTolerancePct});
        s.addRow({"max_rel_err_pct", maxErr});
        s.addRow({"mean_rel_err_pct",
                  estimates.empty()
                      ? 0.0
                      : sumErr / static_cast<double>(
                                     estimates.size())});

        ctx.report.addMeta("schedule",
                           sampleScheduleName(kDefaultSampleSchedule));
        ctx.report.addNote(
            "full side reads the shared exact surface; sampled side "
            "re-times every point with the SMARTS estimator at the "
            "default U:W:M schedule.  CI fails when any point's "
            "relative IPC error exceeds the tolerance.");
    }
};

} // namespace

SHARCH_REGISTER_STUDY(SamplingAccuracyStudy)
