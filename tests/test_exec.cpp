/**
 * @file
 * Tests for the parallel sweep subsystem: thread pool, per-job seed
 * derivation, CLI parsing, and -- the load-bearing guarantee -- that a
 * sweep run with N worker threads is bit-identical to the serial run,
 * both in IPC values and in the CSV disk-cache contents.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/perf_model.hh"
#include "exec/run_options.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"

using namespace sharch;
using namespace sharch::exec;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

RunOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"ssim"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parseRunOptions(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(ThreadPool, RunsEveryJob)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::atomic<int> count{0};
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 100);
    }
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(JobSeed, IsPureFunctionOfIdentity)
{
    const std::uint64_t a = deriveJobSeed(1, "gcc", 2, 4);
    EXPECT_EQ(a, deriveJobSeed(1, "gcc", 2, 4));
    // Every component of the identity must matter.
    EXPECT_NE(a, deriveJobSeed(2, "gcc", 2, 4));
    EXPECT_NE(a, deriveJobSeed(1, "mcf", 2, 4));
    EXPECT_NE(a, deriveJobSeed(1, "gcc", 4, 4));
    EXPECT_NE(a, deriveJobSeed(1, "gcc", 2, 2));
    EXPECT_NE(a, 0u);
}

TEST(JobSeed, GridPointsAreDistinct)
{
    std::set<std::uint64_t> seeds;
    for (unsigned b : l2BankGrid())
        for (unsigned s = 1; s <= 8; ++s)
            seeds.insert(deriveJobSeed(1, "gcc", b, s));
    EXPECT_EQ(seeds.size(), l2BankGrid().size() * 8);
}

TEST(Threads, RequestedCountWins)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);
    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(Threads, EnvControlsDefault)
{
    ::setenv("SHARCH_THREADS", "5", 1);
    EXPECT_EQ(resolveThreadCount(), 5u);
    ::setenv("SHARCH_THREADS", "zero", 1);
    EXPECT_GE(resolveThreadCount(), 1u); // malformed: fall through
    ::unsetenv("SHARCH_THREADS");
}

TEST(SweepGrid, RowMajorOrderAndHelpers)
{
    const auto grid = sweepGrid({std::string("gcc"), "mcf"}, {0, 2},
                                sliceRange(2));
    ASSERT_EQ(grid.size(), 8u);
    EXPECT_EQ(grid[0].profile.name, "gcc");
    EXPECT_EQ(grid[0].banks, 0u);
    EXPECT_EQ(grid[0].slices, 1u);
    EXPECT_EQ(grid[1].slices, 2u);
    EXPECT_EQ(grid[2].banks, 2u);
    EXPECT_EQ(grid[4].profile.name, "mcf");
    EXPECT_TRUE(grid[0].sameConfigAs(grid[0]));
    EXPECT_FALSE(grid[0].sameConfigAs(grid[1]));
}

TEST(SweepRunner, ResultsFollowInputOrderAndDedup)
{
    std::vector<SweepPoint> points = sweepGrid(
        {std::string("gcc")}, {0, 1}, sliceRange(2));
    points.push_back(points.front()); // duplicate config
    std::atomic<int> evals{0};
    SweepRunner runner(4);
    EXPECT_EQ(runner.threads(), 4u);
    const auto values =
        runner.run(points, [&evals](const SweepPoint &pt) {
            ++evals;
            return pt.banks * 100.0 + pt.slices;
        });
    ASSERT_EQ(values.size(), 5u);
    EXPECT_DOUBLE_EQ(values[0], 1.0);
    EXPECT_DOUBLE_EQ(values[1], 2.0);
    EXPECT_DOUBLE_EQ(values[2], 101.0);
    EXPECT_DOUBLE_EQ(values[3], 102.0);
    EXPECT_DOUBLE_EQ(values[4], values[0]); // fanned-out duplicate
    EXPECT_EQ(evals.load(), 4);             // evaluated once
}

TEST(CliParse, OnlyTheBenchmarkIsPositional)
{
    // The benchmark is the only positional; a second one is an error
    // that names the flags to use instead.
    const RunOptions positional = parse({"gcc", "cfg.xml", "5000"});
    ASSERT_FALSE(positional.ok());
    EXPECT_EQ(positional.error,
              "unexpected argument 'cfg.xml' (use --config FILE and "
              "--instructions N)");

    const RunOptions named = parse({"gcc", "--config", "cfg.xml",
                                    "--instructions", "5000"});
    ASSERT_TRUE(named.ok()) << named.error;
    EXPECT_EQ(named.benchmark, "gcc");
    EXPECT_EQ(named.configPath, "cfg.xml");
    EXPECT_EQ(named.instructions, 5000u);
    EXPECT_FALSE(named.isSweep());
}

TEST(CliParse, SharedFlagsErrorIdenticallyAcrossBinaries)
{
    // ssim, sharch-bench, and sharch-serve parse
    // --instructions/--seed/--threads through one spec table;
    // malformed values must produce byte-identical messages.
    const char *runArgv[] = {"ssim", "gcc", "--threads", "0"};
    const char *benchArgv[] = {"sharch-bench", "fig13", "--threads",
                               "0"};
    const char *serveArgv[] = {"sharch-serve", "--threads", "0"};
    const RunOptions r = parseRunOptions(4, runArgv);
    const BenchOptions b = parseBenchOptions(4, benchArgv);
    const ServeOptions s = parseServeOptions(3, serveArgv);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, b.error);
    EXPECT_EQ(r.error, s.error);
    EXPECT_EQ(r.error, "bad --threads '0' (want 1..4096)");

    const char *runSeed[] = {"ssim", "gcc", "--seed", "x"};
    const char *benchSeed[] = {"sharch-bench", "fig13", "--seed",
                               "x"};
    const char *serveSeed[] = {"sharch-serve", "--seed", "x"};
    EXPECT_EQ(parseRunOptions(4, runSeed).error,
              parseBenchOptions(4, benchSeed).error);
    EXPECT_EQ(parseRunOptions(4, runSeed).error,
              parseServeOptions(3, serveSeed).error);
    EXPECT_EQ(parseRunOptions(4, runSeed).error, "bad --seed 'x'");

    const char *runInstr[] = {"ssim", "gcc", "--instructions", "0"};
    const char *serveInstr[] = {"sharch-serve", "--instructions",
                                "0"};
    EXPECT_EQ(parseRunOptions(4, runInstr).error,
              parseServeOptions(3, serveInstr).error);
    EXPECT_EQ(parseRunOptions(4, runInstr).error,
              "bad --instructions '0'");
}

TEST(CliParse, TraceModeFlagIsUnknown)
{
    // Every binary streams its traces; there is no mode to choose.
    const char *runMode[] = {"ssim", "gcc", "--trace-mode", "stream"};
    const char *benchMode[] = {"sharch-bench", "fig13", "--trace-mode",
                               "stream"};
    const char *serveMode[] = {"sharch-serve", "--trace-mode",
                               "stream"};
    EXPECT_EQ(parseRunOptions(4, runMode).error,
              "unknown flag '--trace-mode'");
    EXPECT_EQ(parseBenchOptions(4, benchMode).error,
              "unknown flag '--trace-mode'");
    EXPECT_EQ(parseServeOptions(3, serveMode).error,
              "unknown argument '--trace-mode'");
}

TEST(CliParse, SampleFlagErrorsIdenticallyAcrossBinaries)
{
    // --sample rides the same shared spec table; malformed schedules
    // must error byte-identically from all three binaries.
    const char *runBad[] = {"ssim", "gcc", "--sample", "1000:250"};
    const char *benchBad[] = {"sharch-bench", "fig13", "--sample",
                              "1000:250"};
    const char *serveBad[] = {"sharch-serve", "--sample", "1000:250"};
    const RunOptions r = parseRunOptions(4, runBad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error, parseBenchOptions(4, benchBad).error);
    EXPECT_EQ(r.error, parseServeOptions(3, serveBad).error);
    EXPECT_EQ(r.error,
              "bad --sample '1000:250' "
              "(want U:W:M instruction counts, measure >= 1)");

    // A zero measure window is rejected with the same message.
    const char *runZero[] = {"ssim", "gcc", "--sample", "1000:250:0"};
    const char *serveZero[] = {"sharch-serve", "--sample",
                               "1000:250:0"};
    EXPECT_EQ(parseRunOptions(4, runZero).error,
              parseServeOptions(3, serveZero).error);
    EXPECT_EQ(parseRunOptions(4, runZero).error,
              "bad --sample '1000:250:0' "
              "(want U:W:M instruction counts, measure >= 1)");

    // Signs, garbage suffixes, and extra fields are all malformed.
    for (const char *bad :
         {"-1:250:750", "1000:250:750:9", "1000:250:75x", "a:b:c",
          ""}) {
        const char *argvBad[] = {"ssim", "gcc", "--sample", bad};
        EXPECT_FALSE(parseRunOptions(4, argvBad).ok()) << bad;
    }
}

TEST(CliParse, SampleFlagReachesAllBinaries)
{
    // Default everywhere: sampling off (full detailed timing).
    const char *runDefault[] = {"ssim", "gcc"};
    EXPECT_FALSE(parseRunOptions(2, runDefault).sampleSet);
    const char *benchDefault[] = {"sharch-bench", "fig13"};
    EXPECT_FALSE(parseBenchOptions(2, benchDefault).sampleSet);
    const char *serveDefault[] = {"sharch-serve"};
    EXPECT_FALSE(parseServeOptions(1, serveDefault).sampleSet);

    const SampleSchedule want{12000, 2000, 2000};
    const char *runS[] = {"ssim", "gcc", "--sample", "12000:2000:2000"};
    const RunOptions r = parseRunOptions(4, runS);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.sampleSet);
    EXPECT_EQ(r.sample, want);

    const char *benchS[] = {"sharch-bench", "fig13", "--sample",
                            "12000:2000:2000"};
    const BenchOptions b = parseBenchOptions(4, benchS);
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_TRUE(b.sampleSet);
    EXPECT_EQ(b.sample, want);

    const char *serveS[] = {"sharch-serve", "--sample",
                            "12000:2000:2000"};
    const ServeOptions s = parseServeOptions(3, serveS);
    ASSERT_TRUE(s.ok()) << s.error;
    EXPECT_TRUE(s.sampleSet);
    EXPECT_EQ(s.sample, want);

    // Round-trip: the canonical spelling re-parses to itself.
    SampleSchedule again;
    ASSERT_TRUE(parseSampleSchedule(sampleScheduleName(want), &again));
    EXPECT_EQ(again, want);
}

TEST(ServeParse, FlagsAndDefaults)
{
    const char *defaults[] = {"sharch-serve"};
    ServeOptions o = parseServeOptions(1, defaults);
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.instructions, 2000u);
    EXPECT_EQ(o.seed, 1u);
    EXPECT_EQ(o.fabricWidth, 8);
    EXPECT_EQ(o.fabricHeight, 8);
    EXPECT_TRUE(o.restorePath.empty());

    const char *argv[] = {"sharch-serve", "--instructions", "4000",
                          "--seed",       "9",              "--fabric",
                          "16x4",         "--restore",      "s.json"};
    o = parseServeOptions(9, argv);
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.instructions, 4000u);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.fabricWidth, 16);
    EXPECT_EQ(o.fabricHeight, 4);
    EXPECT_EQ(o.restorePath, "s.json");

    const char *badFabric[] = {"sharch-serve", "--fabric", "16"};
    EXPECT_FALSE(parseServeOptions(3, badFabric).ok());
    const char *unknown[] = {"sharch-serve", "positional"};
    EXPECT_FALSE(parseServeOptions(2, unknown).ok());
}

TEST(CliParse, NamedFlags)
{
    const RunOptions o = parse({"mcf", "--instructions", "2000",
                                "--slices", "1,2,4", "--banks", "0,8",
                                "--seed", "7", "--threads", "2",
                                "--json"});
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.benchmark, "mcf");
    EXPECT_EQ(o.instructions, 2000u);
    EXPECT_EQ(o.slices, (std::vector<unsigned>{1, 2, 4}));
    EXPECT_EQ(o.banks, (std::vector<unsigned>{0, 8}));
    EXPECT_TRUE(o.seedSet);
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.threads, 2u);
    EXPECT_TRUE(o.json);
    EXPECT_TRUE(o.isSweep());
}

TEST(CliParse, MalformedNumbersAreErrorsNotExceptions)
{
    // The historical CLI let std::stoul throw on this.
    EXPECT_FALSE(parse({"gcc", "cfg.xml", "lots"}).ok());
    EXPECT_FALSE(parse({"gcc", "--instructions", "12x"}).ok());
    EXPECT_FALSE(parse({"gcc", "--instructions", "0"}).ok());
    EXPECT_FALSE(parse({"gcc", "--slices", "1,,2"}).ok());
    EXPECT_FALSE(parse({"gcc", "--slices", "-3"}).ok());
    EXPECT_FALSE(parse({"gcc", "--seed"}).ok());
    EXPECT_FALSE(parse({"gcc", "--threads", "0"}).ok());
    EXPECT_FALSE(parse({"gcc", "--frobnicate"}).ok());
    EXPECT_FALSE(parse({}).ok());
    EXPECT_FALSE(parse({"gcc", "a.xml", "1", "extra"}).ok());
}

TEST(CliParse, HelpersRejectGarbage)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseU64("42", &v));
    EXPECT_EQ(v, 42u);
    EXPECT_FALSE(parseU64("", &v));
    EXPECT_FALSE(parseU64("-1", &v));
    EXPECT_FALSE(parseU64("4 2", &v));
    EXPECT_FALSE(parseU64("99999999999999999999999", &v));
    std::vector<unsigned> list;
    EXPECT_TRUE(parseCountList("0,2,128", &list));
    EXPECT_EQ(list, (std::vector<unsigned>{0, 2, 128}));
    EXPECT_FALSE(parseCountList("", &list));
    EXPECT_FALSE(parseCountList("1,", &list));
    EXPECT_FALSE(parseCountList("a,b", &list));
}

TEST(BenchParse, ListRunAndFormats)
{
    const char *argv1[] = {"sharch-bench", "--list"};
    BenchOptions o = parseBenchOptions(2, argv1);
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_TRUE(o.list);
    EXPECT_TRUE(o.patterns.empty());

    const char *argv2[] = {"sharch-bench", "--run", "fig*,tab1",
                           "--format", "json", "--out", "reports",
                           "--instructions", "2000", "--seed", "7",
                           "--threads", "2"};
    o = parseBenchOptions(13, argv2);
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.patterns,
              (std::vector<std::string>{"fig*", "tab1"}));
    EXPECT_EQ(o.format, "json");
    EXPECT_EQ(o.outDir, "reports");
    EXPECT_EQ(o.instructions, 2000u);
    EXPECT_TRUE(o.seedSet);
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.threads, 2u);

    // Bare positionals are patterns too.
    const char *argv3[] = {"sharch-bench", "fig13"};
    o = parseBenchOptions(2, argv3);
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.patterns, (std::vector<std::string>{"fig13"}));
}

TEST(BenchParse, Rejections)
{
    const char *none[] = {"sharch-bench"};
    EXPECT_FALSE(parseBenchOptions(1, none).ok());
    const char *fmt[] = {"sharch-bench", "--run", "fig13",
                         "--format", "yaml"};
    EXPECT_FALSE(parseBenchOptions(5, fmt).ok());
    const char *instr[] = {"sharch-bench", "--run", "fig13",
                           "--instructions", "0"};
    EXPECT_FALSE(parseBenchOptions(5, instr).ok());
    const char *thr[] = {"sharch-bench", "--run", "fig13",
                         "--threads", "junk"};
    EXPECT_FALSE(parseBenchOptions(5, thr).ok());
    const char *flag[] = {"sharch-bench", "--frobnicate"};
    EXPECT_FALSE(parseBenchOptions(2, flag).ok());
}

TEST(Determinism, ParallelSweepMatchesSerialBitwise)
{
    // The acceptance criterion in miniature: same grid, 1 worker vs 4,
    // byte-identical IPC values and CSV cache contents.  The grid
    // includes a multithreaded workload (dedup) so the coherence path
    // is covered too.
    const auto grid = sweepGrid({std::string("gcc"), "hmmer", "dedup"},
                                {0, 2}, sliceRange(2));
    const std::string pathSerial = "test_exec_serial.csv";
    const std::string pathParallel = "test_exec_parallel.csv";
    std::filesystem::remove(pathSerial);
    std::filesystem::remove(pathParallel);

    PerfModel serial(2000);
    serial.enableDiskCache(pathSerial);
    const auto a = serial.performanceBatch(grid, 1);

    PerfModel parallel(2000);
    parallel.enableDiskCache(pathParallel);
    const auto b = parallel.performanceBatch(grid, 4);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].banks, b[i].banks);
        EXPECT_EQ(a[i].slices, b[i].slices);
        // Bitwise, not approximate: determinism is the contract.
        EXPECT_EQ(a[i].ipc, b[i].ipc)
            << a[i].name << " " << a[i].banks << " " << a[i].slices;
        EXPECT_TRUE(a[i].fresh);
    }
    EXPECT_EQ(slurp(pathSerial), slurp(pathParallel));
    EXPECT_FALSE(slurp(pathSerial).empty());
    std::filesystem::remove(pathSerial);
    std::filesystem::remove(pathParallel);
}

TEST(ThreadPool, ThrowingJobDoesNotKillWorkers)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&count, i] {
            if (i % 5 == 0)
                throw std::runtime_error("job " + std::to_string(i));
            ++count;
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 16); // every non-throwing job still ran
    EXPECT_EQ(pool.pendingExceptions(), 4u);
    const auto errors = pool.takeExceptions();
    ASSERT_EQ(errors.size(), 4u);
    EXPECT_EQ(pool.pendingExceptions(), 0u); // ownership transferred
    for (const std::exception_ptr &e : errors)
        EXPECT_THROW(std::rethrow_exception(e), std::runtime_error);

    // The pool is still serviceable after the failures.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 17);
}

TEST(SweepRunner, ThrowingEvaluatorCompletesRemainingPoints)
{
    // One poisoned point must not abort the batch: every other point
    // still evaluates, and the failure surfaces afterwards as the
    // first failing point in *input* order.
    const auto points = sweepGrid({std::string("gcc")}, {0, 1, 2, 4},
                                  sliceRange(2));
    for (unsigned threads : {1u, 4u}) {
        std::atomic<int> evals{0};
        SweepRunner runner(threads);
        EXPECT_THROW(
            runner.run(points,
                       [&evals](const SweepPoint &pt) {
                           ++evals;
                           if (pt.banks == 1 && pt.slices == 2)
                               throw std::runtime_error("poisoned");
                           return 1.0;
                       }),
            std::runtime_error);
        EXPECT_EQ(evals.load(), static_cast<int>(points.size()));
    }
}

TEST(SweepRunner, RunWithStatusReportsEveryPoint)
{
    const auto points =
        sweepGrid({std::string("gcc")}, {0, 2}, sliceRange(2));
    SweepRunner runner(2);
    const auto status = runner.runWithStatus(
        points, [](const SweepPoint &pt, unsigned) {
            if (pt.slices == 2)
                throw std::runtime_error("slice-2 is cursed");
            return pt.banks + 0.5;
        });
    ASSERT_EQ(status.size(), points.size());
    for (std::size_t i = 0; i < status.size(); ++i) {
        if (points[i].slices == 2) {
            EXPECT_FALSE(status[i].ok);
            EXPECT_EQ(status[i].error, "slice-2 is cursed");
            EXPECT_EQ(status[i].attempts, 1u);
        } else {
            EXPECT_TRUE(status[i].ok);
            EXPECT_EQ(status[i].error, "");
            EXPECT_DOUBLE_EQ(status[i].value, points[i].banks + 0.5);
        }
    }
}

TEST(SweepRunner, RetrySucceedsOnSecondAttempt)
{
    const auto points =
        sweepGrid({std::string("mcf")}, {0}, sliceRange(2));
    SweepRunner runner(2);
    const auto status = runner.runWithStatus(
        points,
        [](const SweepPoint &pt, unsigned attempt) {
            if (pt.slices == 1 && attempt == 0)
                throw std::runtime_error("transient");
            return 7.0 + attempt;
        },
        3);
    ASSERT_EQ(status.size(), 2u);
    EXPECT_TRUE(status[0].ok);
    EXPECT_EQ(status[0].attempts, 2u); // failed once, then recovered
    EXPECT_DOUBLE_EQ(status[0].value, 8.0);
    EXPECT_TRUE(status[1].ok);
    EXPECT_EQ(status[1].attempts, 1u);
    EXPECT_DOUBLE_EQ(status[1].value, 7.0);
}

TEST(SweepRunner, RetryExhaustionKeepsLastError)
{
    const auto points =
        sweepGrid({std::string("mcf")}, {0}, sliceRange(1));
    SweepRunner runner(1);
    const auto status = runner.runWithStatus(
        points,
        [](const SweepPoint &, unsigned attempt) -> double {
            throw std::runtime_error("attempt " +
                                     std::to_string(attempt));
        },
        3);
    ASSERT_EQ(status.size(), 1u);
    EXPECT_FALSE(status[0].ok);
    EXPECT_EQ(status[0].attempts, 3u);
    EXPECT_EQ(status[0].error, "attempt 2"); // the last failure
    EXPECT_DOUBLE_EQ(status[0].value, 0.0);
}

TEST(RetrySeed, FirstAttemptMatchesJobSeed)
{
    // Attempt 0 must be the historical seed, so a retry-capable sweep
    // that never actually retries stays bit-identical.
    EXPECT_EQ(deriveRetrySeed(1, "gcc", 2, 4, 0),
              deriveJobSeed(1, "gcc", 2, 4));
    std::set<std::uint64_t> seeds;
    for (unsigned attempt = 0; attempt < 8; ++attempt)
        seeds.insert(deriveRetrySeed(1, "gcc", 2, 4, attempt));
    EXPECT_EQ(seeds.size(), 8u); // each retry gets a fresh stream
    EXPECT_NE(deriveRetrySeed(1, "gcc", 2, 4, 1),
              deriveRetrySeed(1, "mcf", 2, 4, 1));
}

TEST(CliParse, RangeSyntaxAndBounds)
{
    const RunOptions o = parse({"gcc", "--slices", "1-8"});
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.slices, (std::vector<unsigned>{1, 2, 3, 4, 5, 6, 7,
                                               8}));
    const RunOptions mixed = parse({"gcc", "--banks", "0,2-4,128"});
    ASSERT_TRUE(mixed.ok()) << mixed.error;
    EXPECT_EQ(mixed.banks, (std::vector<unsigned>{0, 2, 3, 4, 128}));

    EXPECT_FALSE(parse({"gcc", "--slices", "8-1"}).ok()); // reversed
    EXPECT_FALSE(parse({"gcc", "--slices", "0"}).ok());   // < 1
    EXPECT_FALSE(parse({"gcc", "--slices", "9"}).ok());   // > 8
    EXPECT_FALSE(parse({"gcc", "--slices", "1-9"}).ok());
    EXPECT_FALSE(parse({"gcc", "--banks", "129"}).ok());  // > 128
    EXPECT_TRUE(parse({"gcc", "--banks", "0"}).ok()); // 0 KB is legal
}

TEST(CliParse, FaultFlags)
{
    const RunOptions o = parse({"--inject-faults", "slice:0:3",
                                "--fabric", "4x6"});
    ASSERT_TRUE(o.ok()) << o.error; // no benchmark needed for replay
    EXPECT_EQ(o.faultSpec, "slice:0:3");
    EXPECT_EQ(o.fabricWidth, 4);
    EXPECT_EQ(o.fabricHeight, 6);

    const RunOptions defaults = parse({"gcc"});
    EXPECT_EQ(defaults.fabricWidth, 8);
    EXPECT_EQ(defaults.fabricHeight, 8);
    EXPECT_TRUE(defaults.faultSpec.empty());

    EXPECT_FALSE(parse({"--fabric", "4x6"}).ok()); // still needs one
    EXPECT_FALSE(parse({"gcc", "--fabric", "8"}).ok());
    EXPECT_FALSE(parse({"gcc", "--fabric", "0x8"}).ok());
    EXPECT_FALSE(parse({"gcc", "--fabric", "8x1"}).ok());
    EXPECT_FALSE(parse({"gcc", "--fabric", "8xten"}).ok());
    EXPECT_FALSE(parse({"gcc", "--inject-faults"}).ok());
}

TEST(DiskCache, CorruptRowsAreRejected)
{
    const std::string path = "test_exec_corrupt_cache.csv";
    std::filesystem::remove(path);
    {
        std::ofstream out(path);
        // Matching (instructions=2000, seed=1) rows with sentinel
        // values a simulation would never produce, plus corruption.
        out << "gcc,2000,1,2,4,123.5\n";        // good
        out << "gcc,2000,1,2,5,nan\n";          // non-finite
        out << "gcc,2000,1,2,6,-1.0\n";         // negative
        out << "gcc,2000,1,2,9,123.5\n";        // slices > 8
        out << "gcc,2000,1,200,4,123.5\n";      // banks > 128
        out << "gcc,2000,1,2,0,123.5\n";        // slices < 1
        out << "not,a,row\n";                   // garbage
        out << "mcf,2000,1,4,4,456.5\n";        // good
        out << "mcf,2000,1,4";                  // truncated final row
    }
    PerfModel pm(2000, 1);
    pm.enableDiskCache(path);
    // The good rows are served from the cache (sentinel values prove
    // no simulation happened)...
    EXPECT_DOUBLE_EQ(pm.performance("gcc", 2, 4), 123.5);
    EXPECT_DOUBLE_EQ(pm.performance("mcf", 4, 4), 456.5);
    // ...while the poisoned configurations fall back to simulation.
    const double resim = pm.performance("gcc", 2, 5);
    EXPECT_TRUE(std::isfinite(resim));
    EXPECT_NE(resim, 123.5);
    EXPECT_GT(pm.performance("gcc", 2, 6), 0.0);
    std::filesystem::remove(path);
}

TEST(DiskCache, OtherConfigRowsAreSkippedSilently)
{
    const std::string path = "test_exec_other_config_cache.csv";
    std::filesystem::remove(path);
    {
        std::ofstream out(path);
        out << "gcc,9999,1,2,4,123.5\n"; // other instruction count
        out << "gcc,2000,7,2,4,123.5\n"; // other seed
    }
    PerfModel pm(2000, 1);
    pm.enableDiskCache(path);
    // Neither row matches this model's identity; both must be
    // ignored (they are legitimate rows for other studies).
    EXPECT_NE(pm.performance("gcc", 2, 4), 123.5);
    std::filesystem::remove(path);
}

TEST(Determinism, BatchAgreesWithPointApi)
{
    PerfModel batch(2000);
    PerfModel pointwise(2000);
    const auto grid =
        sweepGrid({std::string("sjeng")}, {0, 4}, sliceRange(2));
    const auto results = batch.performanceBatch(grid, 2);
    for (const SweepResult &r : results) {
        EXPECT_EQ(r.ipc,
                  pointwise.performance(r.name, r.banks, r.slices));
    }
    // A second batch over the same grid is served from the memo.
    for (const SweepResult &r : batch.performanceBatch(grid, 2))
        EXPECT_FALSE(r.fresh);
}

TEST(Determinism, BatchResultsIndependentOfBatchOrder)
{
    PerfModel forward(2000);
    PerfModel reverse(2000);
    auto grid = sweepGrid({std::string("astar")}, {0, 1}, sliceRange(2));
    const auto a = forward.performanceBatch(grid, 2);
    std::reverse(grid.begin(), grid.end());
    const auto b = reverse.performanceBatch(grid, 2);
    ASSERT_EQ(a.size(), b.size());
    for (const SweepResult &ra : a) {
        for (const SweepResult &rb : b) {
            if (ra.banks == rb.banks && ra.slices == rb.slices) {
                EXPECT_EQ(ra.ipc, rb.ipc);
            }
        }
    }
}
