#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "obs/trace.hh"
#include "study/surface.hh"

namespace perfbench {

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
Result::markFirstOp()
{
    if (firstOpNs == 0)
        firstOpNs = nowNs() - overheadNs;
}

void
Result::fail(const std::string &what)
{
    correct = false;
    errors.push_back(what);
}

// --- Spans ------------------------------------------------------------

namespace {

bool gTracing = false;
/** Span timestamps are nanoseconds since tracing was enabled. */
std::uint64_t gOriginNs = 0;
/** The benchmark's own process id in the exported trace. */
constexpr std::uint32_t kPid = 100;

} // namespace

void
enableTracing()
{
    sharch::obs::Tracer &t = sharch::obs::Tracer::instance();
    // Large enough that a 20k-request serve pass never wraps.
    t.setCapacity(std::size_t{1} << 18);
    t.nameProcess(kPid, "perfbench (wall-clock ns)");
    t.nameTrack(kPid, kTrackWorkload, "workload");
    t.nameTrack(kPid, kTrackSurface, "surface");
    t.nameTrack(kPid, kTrackEngine, "engine");
    t.nameTrack(kPid, kTrackServe, "serve client");
    t.nameTrack(kPid, kTrackProbe, "layer probes");
    gOriginNs = nowNs();
    gTracing = true;
}

void
recordSpan(const char *name, const char *category, Track track,
           std::uint64_t beginNs, std::uint64_t endNs,
           std::uint64_t arg, const char *argName)
{
    if (!gTracing)
        return;
    sharch::obs::TraceSpan s;
    s.name = name;
    s.category = category;
    s.begin = beginNs - gOriginNs;
    // A zero-length span would export as an instant; keep it a span.
    s.end = std::max(endNs - gOriginNs, s.begin + 1);
    s.pid = kPid;
    s.tid = track;
    s.arg = arg;
    s.argName = argName;
    sharch::obs::Tracer::instance().record(s);
}

Span::Span(const char *name, const char *category, Track track,
           std::uint64_t arg, const char *argName)
    : name_(name), category_(category), track_(track), arg_(arg),
      argName_(argName), begin_(gTracing ? nowNs() : 0)
{
}

Span::~Span()
{
    if (gTracing)
        recordSpan(name_, category_, track_, begin_, nowNs(), arg_,
                   argName_);
}

std::uint64_t
writeTrace(const std::string &path, std::uint64_t *dropped)
{
    const sharch::obs::Tracer &t = sharch::obs::Tracer::instance();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    t.writeChromeTrace(out);
    *dropped = t.dropped();
    return t.collect().size();
}

// --- Digests ----------------------------------------------------------

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    return fnv1a(s.data(), s.size(), h);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
checkReference(const Options &o, const std::string &workload,
               std::uint64_t key, const std::string &digest, Result *r)
{
    r->digest = digest;
    std::ifstream in(o.referencePath);
    if (!in) {
        r->fail("cannot read reference digests '" + o.referencePath +
                "'");
        return;
    }
    // Every line but the last feeds the checksum the last line states.
    std::uint64_t sum = fnv1a(std::string());
    std::string line, want, stated;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string w, k, d;
        fields >> w >> k >> d;
        if (w == "checksum") {
            stated = k;
            continue;
        }
        sum = fnv1a(line + "\n", sum);
        if (w == workload && k == std::to_string(key))
            want = d;
    }
    if (stated != hex64(sum)) {
        r->fail("reference file checksum is " + hex64(sum) +
                ", the file states '" + stated + "'");
    }
    if (want.empty()) {
        r->fail("no reference digest for " + workload + " key " +
                std::to_string(key));
    } else if (want != digest) {
        r->fail(workload + " digest " + digest +
                " differs from the reference " + want + " (key " +
                std::to_string(key) + ")");
    }
}

// --- Surface ----------------------------------------------------------

std::uint64_t
pointInstructions(const exec::SweepPoint &p, std::size_t perThread)
{
    const std::uint64_t threads =
        p.profile.multithreaded ? p.profile.numThreads : 1;
    return threads * perThread;
}

namespace {

constexpr const char *kCachePath = sharch::study::kPerfCachePath;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

std::string
plantWarmCache(const std::vector<exec::SweepPoint> &grid,
               std::size_t instructions, std::uint64_t seed, Result *r)
{
    const std::uint64_t t0 = nowNs();
    std::ostringstream rows;
    for (const exec::SweepPoint &p : grid) {
        // A plausible but wrong IPC: any read of it changes a digest.
        rows << p.profile.name << ',' << instructions << ',' << seed
             << ',' << p.banks << ',' << p.slices << ','
             << std::setprecision(17) << 0.125 * p.slices << '\n';
    }
    std::ofstream out(kCachePath, std::ios::binary | std::ios::trunc);
    out << rows.str();
    out.close();
    r->overheadNs += nowNs() - t0;
    return rows.str();
}

void
checkCacheUntouched(const std::string &planted, Result *r)
{
    if (readFile(kCachePath) != planted)
        r->fail(std::string(kCachePath) +
                " in the working directory was modified");
}

std::unique_ptr<sharch::PerfModel>
prefillServeSurface(const std::vector<exec::SweepPoint> &grid)
{
    auto pm = std::make_unique<sharch::PerfModel>(kServeInstructions,
                                                  kServeSeed);
    pm->performanceBatch(grid, kWorkers);
    return pm;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace perfbench
