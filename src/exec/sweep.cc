#include "exec/sweep.hh"

#include <exception>
#include <map>
#include <thread>
#include <tuple>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "obs/obs.hh"

namespace sharch::exec {

#if SHARCH_OBS
namespace {

/** Registered once per process; per-thread shards keep bumps cheap. */
struct ExecMetrics
{
    obs::MetricId jobs =
        obs::MetricsRegistry::instance().addCounter("exec.jobs");
    obs::MetricId failures =
        obs::MetricsRegistry::instance().addCounter("exec.failures");
};

ExecMetrics &
execMetrics()
{
    static ExecMetrics m;
    return m;
}

} // namespace
#endif

SweepPoint
sweepPoint(const std::string &benchmark, unsigned banks,
           unsigned slices)
{
    return SweepPoint{profileFor(benchmark), banks, slices};
}

std::vector<unsigned>
sliceRange(unsigned max_slices)
{
    SHARCH_ASSERT(max_slices >= 1, "grid needs at least one Slice");
    std::vector<unsigned> slices(max_slices);
    for (unsigned s = 1; s <= max_slices; ++s)
        slices[s - 1] = s;
    return slices;
}

std::vector<SweepPoint>
sweepGrid(const std::vector<std::string> &benchmarks,
          const std::vector<unsigned> &banks,
          const std::vector<unsigned> &slices)
{
    std::vector<BenchmarkProfile> profiles;
    profiles.reserve(benchmarks.size());
    for (const std::string &name : benchmarks)
        profiles.push_back(profileFor(name));
    return sweepGrid(profiles, banks, slices);
}

std::vector<SweepPoint>
sweepGrid(const std::vector<BenchmarkProfile> &profiles,
          const std::vector<unsigned> &banks,
          const std::vector<unsigned> &slices)
{
    std::vector<SweepPoint> grid;
    grid.reserve(profiles.size() * banks.size() * slices.size());
    for (const BenchmarkProfile &p : profiles)
        for (unsigned b : banks)
            for (unsigned s : slices)
                grid.push_back(SweepPoint{p, b, s});
    return grid;
}

namespace {

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over the benchmark name: stable across platforms. */
std::uint64_t
hashName(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::uint64_t
deriveJobSeed(std::uint64_t base_seed, const std::string &benchmark,
              unsigned banks, unsigned slices)
{
    std::uint64_t h = mix64(base_seed);
    h = mix64(h ^ hashName(benchmark));
    h = mix64(h ^ (std::uint64_t(banks) << 32 | slices));
    // Never hand out 0: some generators degenerate on an all-zero
    // state.
    return h ? h : 0x5eed5eedULL;
}

unsigned
resolveThreadCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(resolveThreadCount(threads))
{
}

namespace {

/** what() of a captured failure, for the sweep's warning line. */
std::string
describe(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

std::vector<double>
SweepRunner::run(const std::vector<SweepPoint> &points,
                 const PointEvaluator &eval) const
{
    std::vector<double> results(points.size(), 0.0);
    if (points.empty())
        return results;

    // Evaluate each distinct configuration once; `unique` maps a
    // config to the first index holding it.
    std::map<std::tuple<std::string, unsigned, unsigned>, std::size_t>
        unique;
    std::vector<std::size_t> canonical(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto key = std::make_tuple(points[i].profile.name,
                                         points[i].banks,
                                         points[i].slices);
        canonical[i] = unique.emplace(key, i).first->second;
    }

    std::vector<std::exception_ptr> errors(points.size());
    {
        ThreadPool pool(threads_);
        for (const auto &[key, i] : unique) {
            (void)key;
            // Each job writes only its own slots, so no lock is
            // needed; catching everything means a bad point can never
            // unwind a worker or starve the queue.
            pool.submit([&, i] {
#if SHARCH_OBS
                const std::uint64_t job_t0 = obs::nowMicros();
#endif
                try {
                    results[i] = eval(points[i]);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
#if SHARCH_OBS
                if (obs::enabled()) {
                    auto &reg = obs::MetricsRegistry::instance();
                    auto &tracer = obs::Tracer::instance();
                    const ExecMetrics &m = execMetrics();
                    reg.add(m.jobs);
                    if (errors[i])
                        reg.add(m.failures);
                    tracer.record(
                        {tracer.intern(points[i].profile.name),
                         "exec", job_t0, obs::nowMicros(),
                         obs::kPidExec,
                         tracer.threadTrackId(obs::kPidExec)});
                }
#endif
            });
        }
        pool.wait();
    }

    // Drain-then-throw: every point ran; surface the first failure by
    // *input position* so the choice is independent of thread count
    // and completion order.
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t c = canonical[i];
        if (errors[c]) {
            SHARCH_WARN("sweep point ", points[i].profile.name, " b",
                        points[i].banks, " s", points[i].slices,
                        " failed: ", describe(errors[c]));
            std::rethrow_exception(errors[c]);
        }
        results[i] = results[c];
    }
    return results;
}

} // namespace sharch::exec
