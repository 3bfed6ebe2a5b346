/**
 * @file
 * Command-line options for the redesigned ssim run API.
 *
 * ssim takes one positional argument, the benchmark name; everything
 * else is a named flag:
 *
 *   --config FILE       XML configuration
 *   --instructions N    trace length per thread
 *   --slices LIST       Slice counts, e.g. `4`, `1,2,4,8`, or `1-8`
 *   --banks LIST        64 KB L2 bank counts, e.g. `0,2,128`
 *   --seed N            base seed
 *   --threads N         sweep worker threads (default SHARCH_THREADS,
 *                       else hardware concurrency)
 *   --inject-faults S   fault-injection spec (see fault/fault_model.hh)
 *   --fabric WxH        chip geometry for fault replay (default 8x8)
 *   --json              machine-readable output
 *   --trace-out FILE    write a Chrome trace-event JSON timeline
 *                       (needs a -DSHARCH_OBS=ON build to be non-empty)
 *   --metrics           print telemetry counters to stderr at exit
 *   --dump-config       print the default XML config and exit
 *   --list              list benchmark profiles and exit
 *
 * `--slices`/`--banks` override the XML config, and giving either a
 * list turns the run into a sweep over the cross product -- no config
 * file needed for quick sweeps.  Parsing never throws and never
 * exits: malformed input comes back as RunOptions::error so the
 * caller can print usage (and tests can assert on it).  Out-of-range
 * values (Slice counts outside Equation 3's 1..8, bank counts above
 * 128, reversed `lo-hi` ranges) are caught here, at parse time, so
 * every consumer of RunOptions inherits the same validation.
 */

#ifndef SHARCH_EXEC_RUN_OPTIONS_HH
#define SHARCH_EXEC_RUN_OPTIONS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/sim_config.hh"

namespace sharch::exec {

/**
 * The values of the flags every sharch binary shares.  ssim,
 * sharch-bench, and sharch-serve all parse --instructions, --seed,
 * --threads, and --sample through one option-spec table
 * (handleSharedFlag), so the three CLIs accept identical spellings
 * with identical validation and identical error messages -- they
 * cannot drift apart flag by flag.
 */
struct SharedFlagValues
{
    std::size_t instructions = 0;      //!< 0: caller's default
    bool instructionsSet = false;
    std::uint64_t seed = 0;
    bool seedSet = false;
    unsigned threads = 0;              //!< 0: resolveThreadCount()
    SampleSchedule sample;             //!< --sample U:W:M schedule
    bool sampleSet = false;
};

/**
 * If argv[*i] names a shared flag, consume it (and its value) into
 * @p out and return true; *i is advanced past the value.  A missing
 * or malformed value also returns true, with the canonical message
 * in @p error.  Unrelated arguments return false untouched.
 */
bool handleSharedFlag(int argc, const char *const *argv, int *i,
                      SharedFlagValues *out, std::string *error);

/** One usage line documenting the shared flags (kept in lockstep). */
std::string sharedFlagUsage();

/** Parsed ssim invocation. */
struct RunOptions
{
    std::string benchmark;
    std::string configPath;            //!< empty: built-in defaults
    std::size_t instructions = 100000; //!< per thread
    std::vector<unsigned> slices;      //!< empty: take from config
    std::vector<unsigned> banks;       //!< empty: take from config
    std::uint64_t seed = 0;
    bool seedSet = false;              //!< --seed given (else config's)
    unsigned threads = 0;              //!< 0: resolveThreadCount()
    SampleSchedule sample;             //!< --sample schedule
    bool sampleSet = false;            //!< --sample given (else full)
    std::string faultSpec;             //!< empty: no fault injection
    int fabricWidth = 8;               //!< --fabric geometry
    int fabricHeight = 8;
    std::string traceOut;              //!< empty: no timeline export
    bool metrics = false;              //!< print counters to stderr
    bool json = false;
    bool dumpConfig = false;
    bool listBenchmarks = false;

    std::string error; //!< nonempty: parse failed, show usage

    bool ok() const { return error.empty(); }
    /** More than one (banks, slices) point requested? */
    bool isSweep() const
    {
        return slices.size() > 1 || banks.size() > 1;
    }
};

/**
 * Parse @p argv (never throws; malformed numbers set .error).
 * Accepts flags in any position around the one positional, the
 * benchmark name.
 */
RunOptions parseRunOptions(int argc, const char *const *argv);

/** Usage text for the redesigned CLI. */
std::string runUsage(const std::string &prog);

/**
 * Parsed sharch-bench invocation (the study-engine driver that
 * replaced the per-figure harness binaries):
 *
 *   --list              list registered studies and exit
 *   --run GLOB          run studies matching GLOB (repeatable; a
 *                       comma-separated value adds several patterns;
 *                       bare positionals are also patterns)
 *   --format FMT        text | csv | json (default text)
 *   --out DIR           write one report file per study into DIR
 *                       instead of stdout
 *   --instructions N    trace length per thread
 *                       (default SHARCH_BENCH_INSTRUCTIONS or 40000)
 *   --seed N            base generation seed
 *                       (default SHARCH_BENCH_SEED or 1)
 *   --threads N         sweep worker threads (default SHARCH_THREADS,
 *                       else hardware concurrency)
 *   --metrics-out DIR   write one <study>.metrics.json per study
 *   --trace-out FILE    write a Chrome trace-event JSON timeline
 *
 * Same contract as parseRunOptions: never throws, never exits;
 * malformed input comes back as .error.
 */
struct BenchOptions
{
    bool list = false;
    std::vector<std::string> patterns; //!< study-name globs to run
    std::string format = "text";
    std::string outDir;                //!< empty: stdout
    std::size_t instructions = 0;      //!< 0: environment default
    std::uint64_t seed = 0;
    bool seedSet = false;              //!< --seed given
    unsigned threads = 0;              //!< 0: resolveThreadCount()
    SampleSchedule sample;             //!< --sample schedule
    bool sampleSet = false;            //!< --sample given (else full)
    std::string metricsOut;            //!< empty: no metrics files
    std::string traceOut;              //!< empty: no timeline export

    std::string error; //!< nonempty: parse failed, show usage

    bool ok() const { return error.empty(); }
};

/** Parse a sharch-bench command line (never throws). */
BenchOptions parseBenchOptions(int argc, const char *const *argv);

/** Usage text for sharch-bench. */
std::string benchUsage(const std::string &prog);

/**
 * Parsed sharch-serve invocation (the allocation-engine daemon that
 * answers newline-delimited JSON requests on stdin):
 *
 *   --instructions N    trace length behind the P(c, s) surface the
 *                       market bids against (default 2000: cheap,
 *                       deterministic)
 *   --seed N            base generation seed (default 1)
 *   --threads N         sweep worker threads for surface fills
 *   --fabric WxH        chip geometry (default 8x8)
 *   --restore FILE      start from a sharch-state-v1 checkpoint
 *   --journal DIR       write-ahead journal: recover DIR on start,
 *                       log every event before applying it
 *   --journal-fsync N   fsync cadence (0 never, 1 every record
 *                       [default], N every N records)
 *   --journal-rotate N  records per segment before a snapshot
 *                       anchors a new generation (default 1024)
 *
 * Shares the --instructions/--seed/--threads spec table with ssim
 * and sharch-bench: same spellings, same errors.
 */
struct ServeOptions
{
    std::size_t instructions = 2000;
    std::uint64_t seed = 1;
    unsigned threads = 0;              //!< 0: resolveThreadCount()
    SampleSchedule sample;             //!< --sample schedule
    bool sampleSet = false;            //!< --sample given (else full)
    int fabricWidth = 8;
    int fabricHeight = 8;
    std::uint64_t fleetChips = 0;      //!< 0: single-chip engine
    std::string restorePath;           //!< empty: fresh engine
    std::string journalDir;            //!< empty: no journal
    unsigned journalFsync = 1;         //!< 0 never, N every N records
    std::uint64_t journalRotate = 1024; //!< records per segment

    std::string error; //!< nonempty: parse failed, show usage

    bool ok() const { return error.empty(); }
};

/** Parse a sharch-serve command line (never throws). */
ServeOptions parseServeOptions(int argc, const char *const *argv);

/** Usage text for sharch-serve. */
std::string serveUsage(const std::string &prog);

/** Strict base-10 parse of a full string; false on any garbage. */
bool parseU64(const std::string &text, std::uint64_t *out);

/**
 * Parse a comma-separated list of non-negative counts ("0,2,128").
 * A field may be an inclusive range "lo-hi" ("1-8" is 1,2,...,8);
 * a reversed range (lo > hi) is rejected rather than silently empty.
 * False on empty fields or garbage; result replaces @p out.
 */
bool parseCountList(const std::string &text,
                    std::vector<unsigned> *out);

} // namespace sharch::exec

#endif // SHARCH_EXEC_RUN_OPTIONS_HH
