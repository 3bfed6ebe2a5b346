#include "core/perf_model.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "common/logging.hh"
#include "config/sim_config.hh"
#include "exec/thread_pool.hh"

namespace sharch {

const std::vector<unsigned> &
l2BankGrid()
{
    // 0, 64 KB, 128 KB, ..., 8 MB in 64 KB banks.
    static const std::vector<unsigned> grid = {0,  1,  2,  4,  8,
                                               16, 32, 64, 128};
    return grid;
}

unsigned
banksToKb(unsigned banks)
{
    return banks * 64;
}

PerfModel::PerfModel(std::size_t instructions_per_thread,
                     std::uint64_t seed)
    : instructions_(instructions_per_thread), seed_(seed)
{
    SHARCH_ASSERT(instructions_per_thread > 0, "empty workload");
}

std::shared_ptr<const TraceGenerator>
PerfModel::generatorFor(const BenchmarkProfile &p)
{
    {
        std::lock_guard<std::mutex> lock(genMutex_);
        auto it = generators_.find(p.name);
        if (it != generators_.end())
            return it->second;
    }
    // Build outside the lock; a racing duplicate is identical (the
    // skeleton is deterministic in (profile, seed)) and discarded.
    auto gen = std::make_shared<const TraceGenerator>(p, seed_);
    std::lock_guard<std::mutex> lock(genMutex_);
    return generators_.try_emplace(p.name, std::move(gen)).first->second;
}

VmResult
PerfModel::detailedRun(const BenchmarkProfile &profile, unsigned banks,
                       unsigned slices)
{
    SimConfig cfg;
    cfg.numSlices = slices;
    cfg.numL2Banks = banks;
    // Per-job seed: a pure function of the point's identity, never of
    // submission order, so parallel sweeps replay bit-identically.
    cfg.seed =
        exec::deriveJobSeed(seed_, profile.name, banks, slices);
    const unsigned vcores =
        profile.multithreaded ? profile.numThreads : 1;
    VmSim vm(cfg, vcores);
    vm.prewarm(profile);
    const auto sources =
        streamSources(generatorFor(profile), instructions_);
    if (sampleMode_ == SampleMode::Sampled) {
        SamplingController controller(sampleSchedule_, cfg.seed);
        return controller.run(vm, sources);
    }
    return vm.run(sources);
}

double
PerfModel::simulatePoint(const BenchmarkProfile &profile,
                         unsigned banks, unsigned slices)
{
    const VmResult res = detailedRun(profile, banks, slices);
    const unsigned vcores =
        profile.multithreaded ? profile.numThreads : 1;
    // Per-VCore performance: VM throughput divided across its VCores,
    // so P(c, s) composes with the economics' v replication factor.
    return res.throughput() / vcores;
}

double
PerfModel::performance(const BenchmarkProfile &profile, unsigned banks,
                       unsigned slices)
{
    const MemoKey key{profile.name, banks, slices};
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return it->second;
    }
    const double perf = simulatePoint(profile, banks, slices);
    std::lock_guard<std::mutex> lock(memoMutex_);
    auto [it, inserted] = memo_.emplace(key, perf);
    // Sampled values are estimates: keep them out of the CSV cache,
    // whose rows have no mode column and must stay exact.
    if (inserted && !cachePath_.empty() &&
        sampleMode_ == SampleMode::Full) {
        std::ofstream out(cachePath_, std::ios::app);
        if (out)
            writeCacheRow(out, profile.name, banks, slices, perf);
    }
    return it->second;
}

std::vector<exec::SweepResult>
PerfModel::performanceBatch(
    const std::vector<exec::SweepPoint> &points, unsigned threads)
{
    // Phase 1: which distinct points still need simulation?
    std::vector<std::size_t> missing; // indices of first occurrences
    {
        std::lock_guard<std::mutex> lock(memoMutex_);
        std::unordered_set<MemoKey, MemoKeyHash> seen;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const exec::SweepPoint &pt = points[i];
            const MemoKey key{pt.profile.name, pt.banks, pt.slices};
            if (memo_.count(key) || !seen.insert(key).second)
                continue;
            missing.push_back(i);
        }
    }

    if (!missing.empty()) {
        const exec::SweepRunner runner(threads);

        // Build each workload's generator skeleton first, so sweep
        // workers never race to build the same one.
        {
            std::map<std::string, const BenchmarkProfile *> profiles;
            for (std::size_t i : missing)
                profiles.emplace(points[i].profile.name,
                                 &points[i].profile);
            exec::ThreadPool pool(runner.threads());
            for (const auto &[name, profile] : profiles) {
                (void)name;
                pool.submit([this, profile] { generatorFor(*profile); });
            }
            pool.wait();
        }

        // Phase 2: simulate, one VmSim per job, on the worker pool.
        std::vector<exec::SweepPoint> jobs;
        jobs.reserve(missing.size());
        for (std::size_t i : missing)
            jobs.push_back(points[i]);
        const std::vector<double> values = runner.run(
            jobs, [this](const exec::SweepPoint &pt) {
                return simulatePoint(pt.profile, pt.banks, pt.slices);
            });

        // Phase 3: single-writer commit, in batch order -- the memo
        // and CSV contents are independent of worker count.
        std::lock_guard<std::mutex> lock(memoMutex_);
        std::ofstream out;
        // Sampled estimates never reach the CSV cache (no mode
        // column; exact full-run rows only).
        if (!cachePath_.empty() && sampleMode_ == SampleMode::Full)
            out.open(cachePath_, std::ios::app);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const exec::SweepPoint &pt = jobs[j];
            const MemoKey key{pt.profile.name, pt.banks, pt.slices};
            if (memo_.emplace(key, values[j]).second && out)
                writeCacheRow(out, pt.profile.name, pt.banks,
                              pt.slices, values[j]);
        }
    }

    // Phase 4: assemble results for every requested point.
    std::vector<exec::SweepResult> results;
    results.reserve(points.size());
    std::lock_guard<std::mutex> lock(memoMutex_);
    std::unordered_set<MemoKey, MemoKeyHash> freshKeys;
    for (std::size_t i : missing) {
        const exec::SweepPoint &pt = points[i];
        freshKeys.insert(MemoKey{pt.profile.name, pt.banks,
                                 pt.slices});
    }
    for (const exec::SweepPoint &pt : points) {
        const MemoKey key{pt.profile.name, pt.banks, pt.slices};
        auto it = memo_.find(key);
        SHARCH_ASSERT(it != memo_.end(), "batch point missing");
        results.push_back(exec::SweepResult{pt.profile.name, pt.banks,
                                            pt.slices, it->second,
                                            freshKeys.count(key) > 0});
    }
    return results;
}

void
PerfModel::enableDiskCache(const std::string &path)
{
    std::lock_guard<std::mutex> lock(memoMutex_);
    if (sampleMode_ == SampleMode::Sampled) {
        // Cache rows are exact full-run results; a sampled model must
        // neither serve them (they would hide the estimator) nor add
        // its estimates to them (they would poison full runs).
        SHARCH_INFORM("disk cache disabled for sampled runs (", path,
                      " holds exact full-run results only)");
        return;
    }
    cachePath_ = path;
    std::ifstream in(path);
    if (!in)
        return;
    std::string line;
    std::unordered_map<MemoKey, double, MemoKeyHash> rows;
    std::size_t skipped = 0;
    std::size_t line_no = 0;
    std::size_t first_bad_line = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::istringstream iss(line);
        std::string name;
        std::size_t instructions = 0;
        std::uint64_t seed = 0;
        unsigned banks = 0, slices = 0;
        double perf = 0.0;
        char comma = 0;
        if (line.empty())
            continue;
        // A cache file is append-only and may be cut mid-row by a
        // crash, or corrupted outright; a bad row must be dropped,
        // never memoized (it would silently poison every figure that
        // reads this surface).  One summarized warning below -- a big
        // corrupt file must not flood the log with a line per row.
        if (!std::getline(iss, name, ',') || name.empty() ||
            !(iss >> instructions >> comma >> seed >> comma >> banks >>
              comma >> slices >> comma >> perf)) {
            if (++skipped == 1)
                first_bad_line = line_no;
            continue;
        }
        if (!std::isfinite(perf) || perf < 0.0 || slices < 1 ||
            slices > SimConfig::kMaxSlices ||
            banks > SimConfig::kMaxL2Banks) {
            if (++skipped == 1)
                first_bad_line = line_no;
            continue;
        }
        // Rows written under another workload/seed are legitimate
        // (several studies may share one cache file); skip silently.
        if (instructions != instructions_ || seed != seed_)
            continue;
        rows[MemoKey{name, banks, slices}] = perf; // last row wins
    }
    // A point already memoized keeps its value: callers may have read
    // it (UtilityOptimizer's frontiers do), so the surface must not
    // change under them.
    std::size_t loaded = 0;
    for (auto &[key, perf] : rows)
        loaded += memo_.emplace(key, perf).second;
    if (skipped > 0) {
        SHARCH_WARN("ignored ", skipped, " corrupt row(s) in cache ",
                    path, " (first at line ", first_bad_line,
                    "); delete the file to silence this");
    }
    if (loaded > 0)
        SHARCH_INFORM("loaded ", loaded, " cached results from ", path);
}

void
PerfModel::writeCacheRow(std::ostream &out, const std::string &name,
                         unsigned banks, unsigned slices,
                         double perf) const
{
    out << name << ',' << instructions_ << ',' << seed_ << ','
        << banks << ',' << slices << ','
        << std::setprecision(17) << perf << '\n';
}

double
PerfModel::performance(const std::string &benchmark, unsigned banks,
                       unsigned slices)
{
    return performance(profileFor(benchmark), banks, slices);
}

} // namespace sharch
