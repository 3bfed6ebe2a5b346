/**
 * @file
 * perfbench -- one workload of the repository benchmark per process.
 *
 *   perfbench --workload sweep|churn|serve --seed N --seconds S
 *             --trace 0|1 --reference FILE [--trace-out FILE]
 *             [--setup-only]
 *   perfbench --digest-only sweep|churn --seed KEY
 *
 * Prints one JSON line on stdout: correct/attempted/failed, the
 * metrics (end-to-end untraced, per-layer traced), the steady_clock
 * time of the first timed operation, the checked digest, any errors,
 * and the build facts.  run.py turns it into the benchmark's result
 * line.  --setup-only stops right after set-up (run.py's set-up
 * probes).  Exit status: 0 correct, 1 a correctness check failed,
 * 2 bad usage, 3 a build that must not be measured.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/json.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload sweep|churn|serve "
                 "--seed N --seconds S --trace 0|1 --reference FILE "
                 "[--trace-out FILE] [--setup-only]\n"
                 "       %s --digest-only sweep|churn --seed KEY\n",
                 argv0, why.c_str(), argv0, argv0);
    return 2;
}

bool
parseU64(const char *s, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || *s == '-')
        return false;
    *out = v;
    return true;
}

/** How this binary was compiled (the result stamp). */
sharch::json::Value
buildFacts()
{
    using sharch::json::Value;
    Value b = Value::object();
    b.add("build_type", Value::string(PERFBENCH_BUILD_TYPE));
    b.add("compiler", Value::string(PERFBENCH_COMPILER));
#ifdef SHARCH_OBS
    b.add("sharch_obs", Value::boolean_(true));
#else
    b.add("sharch_obs", Value::boolean_(false));
#endif
    // SHARCH_OBS is sharch_obs's PUBLIC definition; the sanitizers
    // announce themselves to the compiler.
#if defined(__SANITIZE_ADDRESS__)
    b.add("sanitizer", Value::string("address"));
#elif defined(__SANITIZE_THREAD__)
    b.add("sanitizer", Value::string("thread"));
#else
    b.add("sanitizer", Value::string("none"));
#endif
    b.add("nproc",
          Value::number(std::thread::hardware_concurrency()));
    return b;
}

/** Why this build's numbers would mislead, or "" if it may run. */
std::string
unfitBuild()
{
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
        return "a Debug build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "a sanitized build";
#endif
#ifndef __OPTIMIZE__
    return "an unoptimized build";
#endif
    return "";
}

std::string
render(const Result &r)
{
    using sharch::json::Value;
    Value metrics = Value::object();
    for (const auto &[name, m] : r.metrics) {
        if (!std::isfinite(m.value))
            continue; // absent: run.py reports the missing metric
        Value v = Value::object();
        v.add("value", Value::number(m.value));
        v.add("unit", Value::string(m.unit));
        metrics.add(name, std::move(v));
    }
    Value errors = Value::array();
    for (const std::string &e : r.errors)
        errors.push(Value::string(e));
    Value doc = Value::object();
    doc.add("correct", Value::boolean_(r.correct));
    doc.add("attempted", Value::number(r.attempted));
    doc.add("failed", Value::number(r.failed));
    doc.add("metrics", std::move(metrics));
    doc.add("first_op_ns", Value::number(r.firstOpNs));
    doc.add("digest", Value::string(r.digest));
    doc.add("errors", std::move(errors));
    doc.add("build", buildFacts());
    return doc.dump();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string digestOf;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(argv[0], "missing value for " + flag);
        const char *val = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            o.workload = val;
        } else if (flag == "--digest-only") {
            digestOf = val;
        } else if (flag == "--seed" && parseU64(val, &n)) {
            o.seed = n;
        } else if (flag == "--seconds" && parseU64(val, &n) && n > 0) {
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && parseU64(val, &n) && n <= 1) {
            o.trace = n == 1;
        } else if (flag == "--trace-out") {
            o.tracePath = val;
        } else if (flag == "--reference") {
            o.referencePath = val;
        } else {
            return usage(argv[0], "bad " + flag + " '" + val + "'");
        }
    }

    const std::string unfit = unfitBuild();
    if (!unfit.empty()) {
        std::fprintf(stderr, "%s: refusing to measure %s\n", argv[0],
                     unfit.c_str());
        return 3;
    }

    if (!digestOf.empty()) {
        if (digestOf == "sweep")
            std::printf("%s\n", sweepDigest().c_str());
        else if (digestOf == "churn")
            std::printf("%s\n", churnDigest(referenceKey(o.seed)).c_str());
        else
            return usage(argv[0], "no digest for '" + digestOf + "'");
        return 0;
    }

    if (o.referencePath.empty())
        return usage(argv[0], "--reference is required");
    if (o.setupOnly && o.trace)
        return usage(argv[0], "--setup-only times untraced set-up");
    Result r;
    if (o.workload == "sweep")
        r = runSweep(o);
    else if (o.workload == "churn")
        r = runChurn(o);
    else if (o.workload == "serve")
        r = runServe(o);
    else
        return usage(argv[0], "unknown workload '" + o.workload + "'");

    if (o.trace) {
        std::uint64_t dropped = 0;
        const std::uint64_t spans = writeTrace(o.tracePath, &dropped);
        r.set("obs.spans", static_cast<double>(spans), "count");
        if (dropped > 0)
            r.fail(std::to_string(dropped) + " spans were dropped");
    }
    std::printf("%s\n", render(r).c_str());
    return r.correct ? 0 : 1;
}
