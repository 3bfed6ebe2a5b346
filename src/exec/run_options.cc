#include "exec/run_options.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "config/sim_config.hh"

namespace sharch::exec {

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return false;
    *out = v;
    return true;
}

bool
parseCountList(const std::string &text, std::vector<unsigned> *out)
{
    std::vector<unsigned> parsed;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string field =
            text.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        // A field is either one count or an inclusive "lo-hi" range
        // (the dash cannot be first: parseU64 rejects signs anyway).
        const std::size_t dash = field.find('-', 1);
        std::uint64_t lo = 0, hi = 0;
        if (dash != std::string::npos) {
            if (!parseU64(field.substr(0, dash), &lo) ||
                !parseU64(field.substr(dash + 1), &hi)) {
                return false;
            }
            if (lo > hi)
                return false; // reversed range, not an empty sweep
        } else {
            if (!parseU64(field, &lo))
                return false;
            hi = lo;
        }
        if (hi > std::numeric_limits<unsigned>::max() ||
            hi - lo >= 4096) {
            return false;
        }
        for (std::uint64_t v = lo; v <= hi; ++v)
            parsed.push_back(static_cast<unsigned>(v));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (parsed.empty())
        return false;
    *out = std::move(parsed);
    return true;
}

namespace {

/**
 * The option-spec table behind handleSharedFlag().  One row per flag
 * every sharch binary accepts: the spelling, the validator, and the
 * suffix of the canonical "bad --flag 'value'" message.  Adding a
 * row here adds the flag to ssim, sharch-bench, and sharch-serve at
 * once -- the point of the table is that they cannot drift apart.
 */
struct SharedSpec
{
    const char *name;
    const char *errorSuffix;
    bool (*apply)(const char *val, SharedFlagValues *out);
};

const SharedSpec kSharedSpecs[] = {
    {"--instructions", "",
     [](const char *val, SharedFlagValues *out) {
         std::uint64_t v = 0;
         if (!parseU64(val, &v) || v == 0)
             return false;
         out->instructions = static_cast<std::size_t>(v);
         out->instructionsSet = true;
         return true;
     }},
    {"--seed", "",
     [](const char *val, SharedFlagValues *out) {
         if (!parseU64(val, &out->seed))
             return false;
         out->seedSet = true;
         return true;
     }},
    {"--threads", " (want 1..4096)",
     [](const char *val, SharedFlagValues *out) {
         std::uint64_t v = 0;
         if (!parseU64(val, &v) || v == 0 || v > 4096)
             return false;
         out->threads = static_cast<unsigned>(v);
         return true;
     }},
    {"--sample", " (want U:W:M instruction counts, measure >= 1)",
     [](const char *val, SharedFlagValues *out) {
         if (!parseSampleSchedule(val, &out->sample))
             return false;
         out->sampleSet = true;
         return true;
     }},
};

} // namespace

bool
handleSharedFlag(int argc, const char *const *argv, int *i,
                 SharedFlagValues *out, std::string *error)
{
    const std::string arg = argv[*i];
    for (const SharedSpec &spec : kSharedSpecs) {
        if (arg != spec.name)
            continue;
        if (*i + 1 >= argc) {
            *error = arg + " requires a value";
            return true;
        }
        const char *val = argv[++*i];
        if (!spec.apply(val, out))
            *error = "bad " + arg + " '" + val + "'" +
                     spec.errorSuffix;
        return true;
    }
    return false;
}

std::string
sharedFlagUsage()
{
    return "  --instructions N (trace length), --seed N, --threads N, "
           "and\n"
           "  --sample U:W:M (SMARTS sampling: fast-forward U, warm "
           "up W, measure M\n"
           "  instructions per period; default " +
           sampleScheduleName(kDefaultSampleSchedule) +
           " when U:W:M is omitted... give\n"
           "  the flag to enable) are shared by every sharch binary: "
           "same\n"
           "  spellings, same validation, same errors.\n";
}

std::string
runUsage(const std::string &prog)
{
    return "usage: " + prog +
           " <benchmark> [--config FILE] [--instructions N]\n"
           "            [--slices LIST] [--banks LIST] [--seed N]\n"
           "            [--threads N] [--sample U:W:M] [--json]\n"
           "            [--trace-out FILE] [--metrics]\n"
           "       " + prog +
           " --inject-faults SPEC [--fabric WxH] [--slices LIST]\n"
           "            [--banks LIST] [--json]\n"
           "       " + prog + " --dump-config | --list\n"
           "\n"
           "  --slices/--banks take comma-separated lists (e.g. "
           "1,2,4,8 or 1-8);\n"
           "  giving a list sweeps the cross product in parallel "
           "(--threads workers,\n"
           "  default hardware concurrency).\n"
           "  --inject-faults replays a fault schedule against the "
           "fabric allocator\n"
           "  (spec: seed=N,mtbf=N,count=N[,mttr=N] or fixed "
           "slice:R:C/bank:R:C/link:R:C\n"
           "  events) and reports each VCore's degradation.\n"
           "  --trace-out writes a Chrome trace-event JSON timeline "
           "(load in Perfetto);\n"
           "  --metrics prints telemetry counters to stderr.  Both "
           "need a build with\n"
           "  -DSHARCH_OBS=ON to see any data.\n";
}

namespace {

/** Fetch the value of a --flag; sets error when it is missing. */
template <typename Options>
const char *
flagValue(int argc, const char *const *argv, int *i, Options *opts)
{
    if (*i + 1 >= argc) {
        opts->error = std::string(argv[*i]) + " requires a value";
        return nullptr;
    }
    return argv[++*i];
}

/** Parse a --fabric WxH value into @p opts; sets .error on garbage. */
template <typename Options>
void
parseFabric(const std::string &spec, Options *opts)
{
    const std::size_t x = spec.find('x');
    std::uint64_t w = 0, h = 0;
    if (x == std::string::npos || !parseU64(spec.substr(0, x), &w) ||
        !parseU64(spec.substr(x + 1), &h) || w < 1 || h < 2 ||
        w > 1024 || h > 1024) {
        opts->error = "bad --fabric '" + spec + "' (want WxH, e.g. 8x8)";
        return;
    }
    opts->fabricWidth = static_cast<int>(w);
    opts->fabricHeight = static_cast<int>(h);
}

} // namespace

RunOptions
parseRunOptions(int argc, const char *const *argv)
{
    RunOptions opts;
    SharedFlagValues shared;
    for (int i = 1; i < argc && opts.ok(); ++i) {
        const std::string arg = argv[i];
        if (handleSharedFlag(argc, argv, &i, &shared,
                             &opts.error)) {
            continue;
        }
        if (arg == "--dump-config") {
            opts.dumpConfig = true;
        } else if (arg == "--list") {
            opts.listBenchmarks = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--config") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.configPath = val;
        } else if (arg == "--slices") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            if (!parseCountList(val, &opts.slices)) {
                opts.error = "bad --slices '" + std::string(val) + "'";
                continue;
            }
            for (unsigned s : opts.slices) {
                if (s < 1 || s > SimConfig::kMaxSlices) {
                    opts.error =
                        "--slices values must be in 1.." +
                        std::to_string(SimConfig::kMaxSlices) +
                        " (got " + std::to_string(s) + ")";
                    break;
                }
            }
        } else if (arg == "--banks") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            if (!parseCountList(val, &opts.banks)) {
                opts.error = "bad --banks '" + std::string(val) + "'";
                continue;
            }
            for (unsigned b : opts.banks) {
                if (b > SimConfig::kMaxL2Banks) {
                    opts.error =
                        "--banks values must be in 0.." +
                        std::to_string(SimConfig::kMaxL2Banks) +
                        " (got " + std::to_string(b) + ")";
                    break;
                }
            }
        } else if (arg == "--inject-faults") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.faultSpec = val;
        } else if (arg == "--trace-out") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.traceOut = val;
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--fabric") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                parseFabric(val, &opts);
        } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            opts.error = "unknown flag '" + arg + "'";
        } else if (opts.benchmark.empty()) {
            opts.benchmark = arg;
        } else {
            opts.error = "unexpected argument '" + arg +
                         "' (use --config FILE and --instructions N)";
        }
    }
    if (shared.instructionsSet)
        opts.instructions = shared.instructions;
    if (shared.seedSet) {
        opts.seed = shared.seed;
        opts.seedSet = true;
    }
    if (shared.threads != 0)
        opts.threads = shared.threads;
    if (shared.sampleSet) {
        opts.sample = shared.sample;
        opts.sampleSet = true;
    }
    // Fault replay (--inject-faults) is a degradation study of the
    // fabric allocator itself; a benchmark is optional there.
    if (opts.ok() && !opts.dumpConfig && !opts.listBenchmarks &&
        opts.faultSpec.empty() && opts.benchmark.empty()) {
        opts.error = "missing benchmark name";
    }
    return opts;
}

std::string
benchUsage(const std::string &prog)
{
    return "usage: " + prog + " --list\n"
           "       " + prog +
           " --run GLOB [--run GLOB ...] [--format text|csv|json]\n"
           "            [--out DIR] [--instructions N] [--seed N]\n"
           "            [--threads N] [--sample U:W:M] [--metrics-out DIR]\n"
           "            [--trace-out FILE]\n"
           "\n"
           "  Runs the registered paper studies (figures, tables,\n"
           "  ablations).  --run takes shell-style globs over study\n"
           "  ids ('fig*', 'tab?', 'fig13'); several patterns union.\n"
           "  The union of the selected studies' grids is simulated\n"
           "  in one parallel batch before any study prints, and the\n"
           "  surface is shared through " +
           std::string("sharch_perf_cache.csv") + " in the\n"
           "  working directory.  With --out, one <study>.<ext> file\n"
           "  is written per study; JSON/CSV reports are bit-identical\n"
           "  across --threads values.\n"
           "  --metrics-out writes one <study>.metrics.json of telemetry\n"
           "  counters per study; --trace-out writes a Chrome trace-event\n"
           "  timeline for the whole invocation.  Both need a build with\n"
           "  -DSHARCH_OBS=ON to see any data.\n";
}

BenchOptions
parseBenchOptions(int argc, const char *const *argv)
{
    BenchOptions opts;
    SharedFlagValues shared;
    for (int i = 1; i < argc && opts.ok(); ++i) {
        const std::string arg = argv[i];
        if (handleSharedFlag(argc, argv, &i, &shared,
                             &opts.error)) {
            continue;
        }
        if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--run") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            // A comma-separated value contributes several patterns.
            const std::string list = val;
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string pat =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                if (pat.empty()) {
                    opts.error = "empty pattern in --run '" + list +
                                 "'";
                    break;
                }
                opts.patterns.push_back(pat);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else if (arg == "--format") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            const std::string fmt = val;
            if (fmt != "text" && fmt != "csv" && fmt != "json")
                opts.error = "bad --format '" + fmt +
                             "' (want text, csv, or json)";
            else
                opts.format = fmt;
        } else if (arg == "--out") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.outDir = val;
        } else if (arg == "--metrics-out") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.metricsOut = val;
        } else if (arg == "--trace-out") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.traceOut = val;
        } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            opts.error = "unknown flag '" + arg + "'";
        } else {
            // Bare positionals are run patterns: `sharch-bench fig13`.
            opts.patterns.push_back(arg);
        }
    }
    if (shared.instructionsSet)
        opts.instructions = shared.instructions;
    if (shared.seedSet)
        opts.seed = shared.seed;
    if (shared.threads != 0)
        opts.threads = shared.threads;
    if (shared.sampleSet) {
        opts.sample = shared.sample;
        opts.sampleSet = true;
    }
    if (opts.ok() && !opts.list && opts.patterns.empty())
        opts.error = "nothing to do: give --list or --run GLOB";
    return opts;
}

std::string
serveUsage(const std::string &prog)
{
    return "usage: " + prog +
           " [--instructions N] [--seed N] [--threads N]\n"
           "            [--sample U:W:M] [--fabric WxH] [--fleet N]\n"
           "            [--restore FILE] [--journal DIR]\n"
           "            [--journal-fsync N] [--journal-rotate N]\n"
           "\n"
           "  Runs the allocation engine as a daemon: one JSON "
           "request per stdin\n"
           "  line, one JSON response per stdout line (ops: "
           "allocate, release,\n"
           "  reshape, price, snapshot, restore, stats, report; "
           "see DESIGN.md\n"
           "  sections 8-9).  --restore starts from a "
           "sharch-state-v1 checkpoint\n"
           "  file; --fabric sets the chip geometry of a fresh "
           "engine; --journal\n"
           "  recovers DIR (write-ahead log + snapshots) and logs "
           "every event\n"
           "  before applying it, so a kill at any point is "
           "recoverable.\n" +
           sharedFlagUsage();
}

ServeOptions
parseServeOptions(int argc, const char *const *argv)
{
    ServeOptions opts;
    SharedFlagValues shared;
    for (int i = 1; i < argc && opts.ok(); ++i) {
        const std::string arg = argv[i];
        if (handleSharedFlag(argc, argv, &i, &shared,
                             &opts.error)) {
            continue;
        }
        if (arg == "--restore") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.restorePath = val;
        } else if (arg == "--journal") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                opts.journalDir = val;
        } else if (arg == "--journal-fsync") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            std::uint64_t n = 0;
            if (!parseU64(val, &n) || n > 1u << 20) {
                opts.error = std::string("bad --journal-fsync '") +
                             val + "' (want a record count; 0 "
                             "disables fsync)";
            } else {
                opts.journalFsync = static_cast<unsigned>(n);
            }
        } else if (arg == "--journal-rotate") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            std::uint64_t n = 0;
            if (!parseU64(val, &n) || n == 0) {
                opts.error = std::string("bad --journal-rotate '") +
                             val + "' (want a positive record "
                             "count)";
            } else {
                opts.journalRotate = n;
            }
        } else if (arg == "--fleet") {
            const char *val = flagValue(argc, argv, &i, &opts);
            if (!val)
                continue;
            std::uint64_t n = 0;
            if (!parseU64(val, &n) || n == 0 || n > 1u << 20) {
                opts.error = std::string("bad --fleet '") + val +
                             "' (want a chip count in [1, 2^20])";
            } else {
                opts.fleetChips = n;
            }
        } else if (arg == "--fabric") {
            if (const char *val = flagValue(argc, argv, &i, &opts))
                parseFabric(val, &opts);
        } else {
            opts.error = "unknown argument '" + arg + "'";
        }
    }
    if (shared.instructionsSet)
        opts.instructions = shared.instructions;
    if (shared.seedSet)
        opts.seed = shared.seed;
    if (shared.threads != 0)
        opts.threads = shared.threads;
    if (shared.sampleSet) {
        opts.sample = shared.sample;
        opts.sampleSet = true;
    }
    return opts;
}

} // namespace sharch::exec
