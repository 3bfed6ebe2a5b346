#include "core/sampling.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/random.hh"

namespace sharch {

namespace {

/** Field-wise a - b for monotonically growing stats (one VCore's
 *  counters before/after a detailed window). */
SimStats
subtractStats(const SimStats &a, const SimStats &b)
{
    SimStats d;
    d.cycles = a.cycles - b.cycles;
    for (Count SimStats::*c : SimStats::kCounters)
        d.*c = a.*c - b.*c;
    for (std::size_t i = 0; i < d.stallCycles.size(); ++i)
        d.stallCycles[i] = a.stallCycles[i] - b.stallCycles[i];
    return d;
}

/** Field-wise accumulate (cycles too: window durations add). */
void
addStats(SimStats *acc, const SimStats &w)
{
    acc->cycles += w.cycles;
    for (Count SimStats::*c : SimStats::kCounters)
        acc->*c += w.*c;
    for (std::size_t i = 0; i < acc->stallCycles.size(); ++i)
        acc->stallCycles[i] += w.stallCycles[i];
}

/** Round-to-nearest counter scaling. */
Count
scaleCount(Count v, double scale)
{
    return static_cast<Count>(
        std::llround(static_cast<double>(v) * scale));
}

/** Ratio-extrapolate measured window sums to the whole stream. */
SimStats
scaleStats(const SimStats &sum, double scale)
{
    SimStats e;
    e.cycles = scaleCount(sum.cycles, scale);
    for (Count SimStats::*c : SimStats::kCounters)
        e.*c = scaleCount(sum.*c, scale);
    for (std::size_t i = 0; i < e.stallCycles.size(); ++i)
        e.stallCycles[i] = scaleCount(sum.stallCycles[i], scale);
    return e;
}

/**
 * Relative 95% CI half-width of a per-window ratio num/den: the
 * spread of the window-local rates around their mean, 1.96 * sd /
 * (sqrt(m) * mean).  Windows whose denominator is zero carry no
 * information about the rate and are excluded; fewer than two
 * informative windows yield 0 (no interval, not "perfect").
 */
double
ratioCi(const std::vector<SimStats> &windows,
        Count SimStats::*num, Count SimStats::*den)
{
    std::vector<double> rates;
    rates.reserve(windows.size());
    for (const SimStats &w : windows) {
        if (w.*den > 0) {
            rates.push_back(static_cast<double>(w.*num) /
                            static_cast<double>(w.*den));
        }
    }
    const std::size_t m = rates.size();
    if (m < 2)
        return 0.0;
    const double mean = arithmeticMean(rates);
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double r : rates)
        var += (r - mean) * (r - mean);
    var /= static_cast<double>(m - 1);
    return 1.96 * std::sqrt(var / static_cast<double>(m)) / mean;
}

/**
 * Control-variate (regression) CPI estimator.
 *
 * Functional warming counts the timing-independent events of every
 * fast-forwarded instruction, so the *exact* whole-stream per-
 * instruction rates of L1D/L1I/L2 misses and branch mispredicts are
 * known.  Per-window CPI correlates strongly with those same
 * per-window rates (phase noise in the synthetic streams is almost
 * entirely miss- and mispredict-driven; multivariate R^2 is 0.9+ on
 * the noisiest profiles), so regressing window CPI on the window
 * rates and evaluating the fit at the exact whole-stream rates
 * removes most of the sampling variance a plain window mean carries:
 *
 *   cpi_adj = mean(y) + sum_j beta_j * (X_j - mean(x_j))
 *
 * with y the window CPIs, x the window rates, X the exact rates, and
 * beta the least-squares slopes.  This is the classic regression
 * estimator of survey sampling; it is consistent, and with dozens of
 * windows its bias (O(1/m)) is far below the variance it removes.
 *
 * Falls back to the plain ratio estimate when there are too few
 * windows to fit (m < 2 * (k + 1)) or the normal equations are
 * degenerate.  @p ci_out receives the relative 95% CI: residual-based
 * after a fit, the plain window-spread CI otherwise.
 */
constexpr std::size_t kRegressors = 4;

double
regressionCpi(const std::vector<SimStats> &windows,
              const SimStats &exact, Count total_instr, double *ci_out)
{
    // Window observations: CPI and the four architectural rates.
    std::vector<double> y;
    std::vector<std::array<double, kRegressors>> x;
    for (const SimStats &w : windows) {
        if (w.instructionsCommitted == 0)
            continue;
        const double inv =
            1.0 / static_cast<double>(w.instructionsCommitted);
        y.push_back(static_cast<double>(w.cycles) * inv);
        x.push_back({static_cast<double>(w.l1dMisses) * inv,
                     static_cast<double>(w.l1iMisses) * inv,
                     static_cast<double>(w.l2Misses) * inv,
                     static_cast<double>(w.branchMispredicts) * inv});
    }
    const std::size_t m = y.size();

    // Plain ratio estimate (instruction-weighted window mean).
    Count sum_c = 0, sum_i = 0;
    for (const SimStats &w : windows) {
        sum_c += w.cycles;
        sum_i += w.instructionsCommitted;
    }
    const double ratio = sum_i > 0 ? static_cast<double>(sum_c) /
                                         static_cast<double>(sum_i)
                                   : 0.0;
    *ci_out = ratioCi(windows, &SimStats::cycles,
                      &SimStats::instructionsCommitted);
    if (m < 2 * (kRegressors + 1) || total_instr == 0)
        return ratio;

    double ybar = 0.0;
    std::array<double, kRegressors> xbar{};
    for (std::size_t i = 0; i < m; ++i) {
        ybar += y[i];
        for (std::size_t j = 0; j < kRegressors; ++j)
            xbar[j] += x[i][j];
    }
    ybar /= static_cast<double>(m);
    for (double &v : xbar)
        v /= static_cast<double>(m);

    // Centered normal equations.
    double xtx[kRegressors][kRegressors] = {};
    double xty[kRegressors] = {};
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t a = 0; a < kRegressors; ++a) {
            const double da = x[i][a] - xbar[a];
            xty[a] += da * (y[i] - ybar);
            for (std::size_t b = a; b < kRegressors; ++b)
                xtx[a][b] += da * (x[i][b] - xbar[b]);
        }
    }
    double max_diag = 0.0;
    for (std::size_t a = 0; a < kRegressors; ++a) {
        for (std::size_t b = 0; b < a; ++b)
            xtx[a][b] = xtx[b][a];
        max_diag = std::max(max_diag, xtx[a][a]);
    }
    if (max_diag <= 0.0)
        return ratio; // every regressor constant: nothing to fit
    // A hair of ridge keeps near-collinear rate columns (e.g. L1D and
    // L2 misses moving together) from blowing up the solve; at 1e-9
    // of the dominant diagonal it is far below sampling noise.
    for (std::size_t a = 0; a < kRegressors; ++a)
        xtx[a][a] += 1e-9 * max_diag;

    // Gaussian elimination with partial pivoting.
    double beta[kRegressors] = {};
    {
        double A[kRegressors][kRegressors + 1];
        for (std::size_t a = 0; a < kRegressors; ++a) {
            for (std::size_t b = 0; b < kRegressors; ++b)
                A[a][b] = xtx[a][b];
            A[a][kRegressors] = xty[a];
        }
        for (std::size_t c = 0; c < kRegressors; ++c) {
            std::size_t piv = c;
            for (std::size_t r = c + 1; r < kRegressors; ++r) {
                if (std::abs(A[r][c]) > std::abs(A[piv][c]))
                    piv = r;
            }
            if (std::abs(A[piv][c]) < 1e-30 * max_diag)
                return ratio; // degenerate beyond the ridge's help
            if (piv != c) {
                for (std::size_t b = 0; b <= kRegressors; ++b)
                    std::swap(A[c][b], A[piv][b]);
            }
            for (std::size_t r = c + 1; r < kRegressors; ++r) {
                const double f = A[r][c] / A[c][c];
                for (std::size_t b = c; b <= kRegressors; ++b)
                    A[r][b] -= f * A[c][b];
            }
        }
        for (std::size_t c = kRegressors; c-- > 0;) {
            double v = A[c][kRegressors];
            for (std::size_t b = c + 1; b < kRegressors; ++b)
                v -= A[c][b] * beta[b];
            beta[c] = v / A[c][c];
        }
    }

    // Evaluate the fit at the exact whole-stream rates.
    const double inv_total = 1.0 / static_cast<double>(total_instr);
    const std::array<double, kRegressors> xtrue = {
        static_cast<double>(exact.l1dMisses) * inv_total,
        static_cast<double>(exact.l1iMisses) * inv_total,
        static_cast<double>(exact.l2Misses) * inv_total,
        static_cast<double>(exact.branchMispredicts) * inv_total,
    };
    double adj = ybar;
    for (std::size_t j = 0; j < kRegressors; ++j)
        adj += beta[j] * (xtrue[j] - xbar[j]);
    if (!(adj > 0.0) || !std::isfinite(adj))
        return ratio; // wild extrapolation: keep the safe estimate

    // Trust region: the regression corrects the ratio estimate's
    // sampling error, whose own magnitude is bounded by the ratio's
    // 95% CI half-width -- a correction larger than that is leverage
    // (exact rates far outside the window cloud amplifying slope
    // noise), not signal.  Clamping kills the heavy tail such fits
    // produce while leaving genuine corrections untouched.
    const double ratioCiAbs = *ci_out * ratio;
    if (std::abs(adj - ratio) > ratioCiAbs) {
        adj = ratio + std::copysign(ratioCiAbs, adj - ratio);
        return adj; // clamped: the plain-ratio CI stays in *ci_out
    }

    // Residual-based CI (the variance the regression did not remove).
    double ss_res = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        double r = y[i] - ybar;
        for (std::size_t j = 0; j < kRegressors; ++j)
            r -= beta[j] * (x[i][j] - xbar[j]);
        ss_res += r * r;
    }
    const double dof =
        static_cast<double>(m > kRegressors + 1 ? m - kRegressors - 1
                                                : 1);
    *ci_out = 1.96 *
              std::sqrt(ss_res / dof / static_cast<double>(m)) / adj;
    return adj;
}

/**
 * Replace the estimated architectural counters with their exact
 * whole-stream totals (detailed stats plus functional-warming stats).
 * These are the counters whose events fastForwardOne() observes with
 * the same gating as the detailed walk; the purely timing-domain
 * counters (stalls, squashes, network traffic, waits) stay as the
 * ratio estimates they are.
 */
void
copyExactCounters(SimStats *est, const SimStats &exact)
{
    est->branches = exact.branches;
    est->branchMispredicts = exact.branchMispredicts;
    est->loads = exact.loads;
    est->stores = exact.stores;
    est->l1dAccesses = exact.l1dAccesses;
    est->l1dMisses = exact.l1dMisses;
    est->l1iAccesses = exact.l1iAccesses;
    est->l1iMisses = exact.l1iMisses;
    est->l2Accesses = exact.l2Accesses;
    est->l2Misses = exact.l2Misses;
    est->coherenceInvalidations = exact.coherenceInvalidations;
}

/** Exact counters carry no sampling uncertainty: zero their CIs. */
void
markExactCis(SamplingInfo *info)
{
    info->ciL1dMissRate = 0.0;
    info->ciL2MissRate = 0.0;
    info->ciBranchMispredictRate = 0.0;
}

/** The sampling provenance block for one set of measure windows. */
SamplingInfo
infoFor(const std::vector<SimStats> &windows, Count warmup, Count ff)
{
    SamplingInfo info;
    info.active = true;
    info.windows = windows.size();
    for (const SimStats &w : windows)
        info.measuredInstructions += w.instructionsCommitted;
    info.warmupInstructions = warmup;
    info.fastForwardInstructions = ff;
    info.ciCpi = ratioCi(windows, &SimStats::cycles,
                         &SimStats::instructionsCommitted);
    info.ciL1dMissRate = ratioCi(windows, &SimStats::l1dMisses,
                                 &SimStats::l1dAccesses);
    info.ciL2MissRate = ratioCi(windows, &SimStats::l2Misses,
                                &SimStats::l2Accesses);
    info.ciBranchMispredictRate =
        ratioCi(windows, &SimStats::branchMispredicts,
                &SimStats::branches);
    return info;
}

} // namespace

SamplingController::SamplingController(const SampleSchedule &schedule,
                                       std::uint64_t seed)
    : schedule_(schedule), seed_(seed)
{
    SHARCH_ASSERT(schedule_.measure > 0,
                  "sampling needs a measure window of >= 1 instruction");
}

VmResult
SamplingController::run(
    VmSim &vm, const std::vector<std::unique_ptr<InstSource>> &sources,
    std::size_t chunk)
{
    const std::size_t n = vm.numVCores();
    SHARCH_ASSERT(sources.size() == n,
                  "one instruction source per VCore required");
    SHARCH_ASSERT(chunk > 0, "chunk must be positive");

    // Per-VCore schedule state.  Every VCore walks the same
    // warm-up -> measure -> fast-forward cycle with the same jitter
    // sequence (identical per-VCore seeds), so windows of equal index
    // cover the same stream region on every VCore; the *driver* below
    // rotates VCores round-robin like VmSim::run, with each turn
    // spanning phase boundaries as needed.  Rotation granularity is
    // part of the multi-VCore timing contract: bank-port and
    // directory contention depend on how far one VCore's cycle clock
    // runs ahead (~chunk * CPI cycles in the full run) before the
    // next takes its turn.  Earlier drivers that rotated at phase
    // boundaries, or that charged fast-forwarded (cycle-free)
    // instructions against the turn, advanced fewer cycles per
    // rotation and under-observed contention by 3-4% CPI on the
    // multithreaded workloads.
    enum class Phase { Warmup, Measure, FastForward };
    struct VcState
    {
        Phase phase = Phase::FastForward; //!< rolls into warm-up first
        std::uint64_t left = 0;           //!< instructions left in phase
        SimStats snap;                    //!< stats at measure entry
        std::vector<SimStats> windows;
        Count warmupInsts = 0;
        Count ffInsts = 0;
        Rng jitter;

        explicit VcState(std::uint64_t seed) : jitter(seed) {}
    };
    std::vector<VcState> st;
    st.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        // Jitter stream: a pure function of the run's seed, so window
        // placement -- and therefore every extrapolated counter -- is
        // part of the run's deterministic identity.
        st.emplace_back(seed_ ^ 0x53414d504c45ULL); // "SAMPLE"
    }

    // Advance @p s to its next non-empty phase (a fresh period's
    // fast-forward draws its jitter here: +/- U/8 so windows cannot
    // phase-lock with stream structure).
    auto enterNext = [&](VcState &s, std::size_t v) {
        while (s.left == 0) {
            switch (s.phase) {
            case Phase::Warmup:
                s.phase = Phase::Measure;
                s.snap = vm.vcore(v).stats();
                s.left = schedule_.measure;
                break;
            case Phase::Measure: {
                std::uint64_t u = schedule_.fastForward;
                if (u >= 8) {
                    const std::uint64_t span = u / 4;
                    u = u - span / 2 + s.jitter.nextBounded(span + 1);
                }
                s.phase = Phase::FastForward;
                s.left = u;
                break;
            }
            case Phase::FastForward:
                s.phase = Phase::Warmup;
                s.left = schedule_.warmup;
                break;
            }
        }
    };

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t v = 0; v < n; ++v) {
            InstSource &src = *sources[v];
            VcState &s = st[v];
            std::uint64_t turn = chunk;
            while (turn > 0 && !src.exhausted()) {
                if (s.left == 0)
                    enterNext(s, v);
                // The turn budget counts *detailed* instructions
                // only: contention between VCores is driven by how
                // many cycles one clock runs ahead per rotation
                // (~chunk * CPI in the full run), and fast-forward
                // advances no cycles -- charging it against the turn
                // would shrink the per-rotation clock advance and
                // systematically under-observe contention.
                const bool detailed = s.phase != Phase::FastForward;
                const auto quantum = static_cast<std::size_t>(
                    detailed ? std::min<std::uint64_t>(turn, s.left)
                             : s.left);
                std::size_t did = 0;
                switch (s.phase) {
                case Phase::Warmup:
                    did = vm.vcore(v).step(src, quantum);
                    s.warmupInsts += did;
                    break;
                case Phase::Measure:
                    did = vm.vcore(v).step(src, quantum);
                    break;
                case Phase::FastForward:
                    did = vm.vcore(v).fastForward(src, quantum);
                    s.ffInsts += did;
                    break;
                }
                s.left -= did;
                if (detailed)
                    turn -= did;
                if (did > 0)
                    progress = true;
                if (s.phase == Phase::Measure && s.left == 0) {
                    const SimStats delta =
                        subtractStats(vm.vcore(v).stats(), s.snap);
                    if (delta.instructionsCommitted > 0)
                        s.windows.push_back(delta);
                }
                if (did < quantum)
                    break; // source drained mid-quantum
            }
        }
    }

    // A stream that ended inside a measure window still contributed
    // detailed instructions: record the partial window.
    for (std::size_t v = 0; v < n; ++v) {
        VcState &s = st[v];
        if (s.phase != Phase::Measure || s.left == 0)
            continue;
        const SimStats delta =
            subtractStats(vm.vcore(v).stats(), s.snap);
        if (delta.instructionsCommitted > 0)
            s.windows.push_back(delta);
    }

    // Extrapolate each VCore to its full stream length.  Timing-
    // domain counters (stalls, network traffic, squashes, waits)
    // scale by streamed/measured; the architectural counters are not
    // estimated at all -- functional warming counted them exactly, so
    // stats() + functionalStats() is the true whole-stream total.
    // Cycles come from the regression estimator, anchored at those
    // exact rates.
    VmResult res;
    SimStats exactAgg;
    Count totalAgg = 0;
    for (std::size_t v = 0; v < n; ++v) {
        const Count total = sources[v]->consumed();
        SimStats exact = vm.vcore(v).stats();
        addStats(&exact, vm.vcore(v).functionalStats());
        addStats(&exactAgg, exact);
        totalAgg += total;

        SimStats sum;
        for (const SimStats &w : st[v].windows)
            addStats(&sum, w);

        SimStats est;
        if (sum.instructionsCommitted == 0) {
            // Degenerate stream (shorter than one warm-up): nothing
            // was measured, but everything ran detailed -- the actual
            // stats are exact.
            est = vm.vcore(v).stats();
            est.sampling = infoFor(st[v].windows, st[v].warmupInsts,
                                   st[v].ffInsts);
        } else {
            const double scale =
                static_cast<double>(total) /
                static_cast<double>(sum.instructionsCommitted);
            est = scaleStats(sum, scale);
            est.instructionsCommitted = total;
            double ciCpi = 0.0;
            const double cpi =
                regressionCpi(st[v].windows, exact, total, &ciCpi);
            est.cycles = static_cast<Count>(
                std::llround(cpi * static_cast<double>(total)));
            copyExactCounters(&est, exact);
            est.sampling = infoFor(st[v].windows, st[v].warmupInsts,
                                   st[v].ffInsts);
            est.sampling.ciCpi = ciCpi;
            markExactCis(&est.sampling);
        }
        res.perVCore.push_back(est);
        res.aggregate.merge(est);
        res.cycles = std::max(res.cycles, est.cycles);
    }
    res.aggregate.cycles = res.cycles;

    // Aggregate CI from cross-VCore window sums: window k of the
    // aggregate is the sum of every VCore's window k (the VCores run
    // the same lockstep schedule, so equal indices cover the same
    // stream region).  Tighter than the max-merge the per-VCore
    // blocks fold to, and identical to the per-VCore CI when n == 1.
    std::size_t common = st.empty() ? 0 : st[0].windows.size();
    for (const VcState &s : st)
        common = std::min(common, s.windows.size());
    std::vector<SimStats> aggWindows(common);
    for (std::size_t k = 0; k < common; ++k) {
        for (std::size_t v = 0; v < n; ++v)
            addStats(&aggWindows[k], st[v].windows[k]);
    }
    const SamplingInfo perVCoreCounts = res.aggregate.sampling;
    res.aggregate.sampling = infoFor(
        aggWindows,
        perVCoreCounts.warmupInstructions,
        perVCoreCounts.fastForwardInstructions);
    res.aggregate.sampling.windows = perVCoreCounts.windows;
    res.aggregate.sampling.measuredInstructions =
        perVCoreCounts.measuredInstructions;
    if (totalAgg > 0 && !aggWindows.empty()) {
        double ciCpi = 0.0;
        regressionCpi(aggWindows, exactAgg, totalAgg, &ciCpi);
        res.aggregate.sampling.ciCpi = ciCpi;
        markExactCis(&res.aggregate.sampling);
    }
    return res;
}

} // namespace sharch
