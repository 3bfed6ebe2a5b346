/**
 * @file
 * Tests for the SSim core: VCoreSim timing invariants, VmSim
 * multi-VCore coherence, prewarming, reconfiguration costs, and the
 * memoized/disk-cached performance model.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/perf_model.hh"
#include "core/reconfig.hh"
#include "core/vm_sim.hh"
#include "trace/address_map.hh"
#include "trace/generator.hh"
#include "trace/inst_source.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

VmResult
runOnce(const std::string &bench, unsigned banks, unsigned slices,
        std::size_t n = 8000, bool prewarm = true)
{
    const BenchmarkProfile &p = profileFor(bench);
    SimConfig cfg;
    cfg.numSlices = slices;
    cfg.numL2Banks = banks;
    const unsigned vcores = p.multithreaded ? p.numThreads : 1;
    VmSim vm(cfg, vcores);
    if (prewarm)
        vm.prewarm(p);
    TraceGenerator gen(p, 1);
    return vm.run(gen.generateThreads(n));
}

} // namespace

TEST(VCoreSim, CommitsEveryInstruction)
{
    const VmResult r = runOnce("gcc", 2, 2);
    EXPECT_EQ(r.aggregate.instructionsCommitted, 8000u);
    EXPECT_EQ(r.aggregate.instructionsFetched, 8000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(VCoreSim, DeterministicAcrossRuns)
{
    const VmResult a = runOnce("sjeng", 2, 4);
    const VmResult b = runOnce("sjeng", 2, 4);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.aggregate.branchMispredicts,
              b.aggregate.branchMispredicts);
    EXPECT_EQ(a.aggregate.l1dMisses, b.aggregate.l1dMisses);
}

TEST(VCoreSim, IpcIsPhysical)
{
    // A Slice fetches 2/cycle: aggregate IPC can never exceed 2*s.
    for (unsigned s : {1u, 4u}) {
        const VmResult r = runOnce("hmmer", 2, s);
        EXPECT_LE(r.throughput(), 2.0 * s);
        EXPECT_GT(r.throughput(), 0.01);
    }
}

TEST(VCoreSim, CountsMatchTraceContent)
{
    const BenchmarkProfile &p = profileFor("gcc");
    TraceGenerator gen(p, 1);
    const Trace t = gen.generate(8000);
    std::size_t loads = 0, stores = 0, branches = 0;
    for (const TraceInst &ti : t.instructions) {
        loads += ti.op == OpClass::Load;
        stores += ti.op == OpClass::Store;
        branches += ti.isBranch();
    }
    const VmResult r = runOnce("gcc", 2, 2);
    EXPECT_EQ(r.aggregate.loads, loads);
    EXPECT_EQ(r.aggregate.stores, stores);
    EXPECT_EQ(r.aggregate.branches, branches);
    EXPECT_LE(r.aggregate.branchMispredicts, branches);
}

TEST(VCoreSim, SingleSliceHasNoSonTraffic)
{
    const VmResult r = runOnce("gcc", 2, 1);
    EXPECT_EQ(r.aggregate.operandRequests, 0u);
    EXPECT_EQ(r.aggregate.renameBroadcasts, 0u);
}

TEST(VCoreSim, MultiSliceUsesTheSon)
{
    const VmResult r = runOnce("gcc", 2, 4);
    EXPECT_GT(r.aggregate.operandRequests, 0u);
    EXPECT_EQ(r.aggregate.operandRequests, r.aggregate.operandReplies);
    EXPECT_GT(r.aggregate.renameBroadcasts, 0u);
}

TEST(VCoreSim, StepInterfaceIsIncremental)
{
    SimConfig cfg;
    FabricPlacement placement(cfg.numSlices, cfg.numL2Banks);
    L2System l2(cfg, {placement});
    VCoreSim sim(cfg, 0, placement, l2);
    TraceGenerator gen(profileFor("gcc"), 1);
    const Trace t = gen.generate(1000);
    MaterializedTraceSource src(t);
    EXPECT_EQ(sim.step(src, 400), 400u);
    EXPECT_FALSE(sim.done());
    EXPECT_EQ(src.consumed(), 400u);
    EXPECT_EQ(sim.step(src, 1000), 600u);
    EXPECT_TRUE(sim.done());
    EXPECT_EQ(sim.stats().instructionsCommitted, 1000u);
}

TEST(VCoreSim, MoreCacheHelpsSensitiveWorkloads)
{
    const Cycles none = runOnce("gobmk", 0, 2).cycles;
    const Cycles big = runOnce("gobmk", 8, 2).cycles;
    EXPECT_LT(big, none);
}

TEST(VCoreSim, PrewarmReducesColdMisses)
{
    const VmResult cold = runOnce("gcc", 8, 2, 8000, false);
    const VmResult warm = runOnce("gcc", 8, 2, 8000, true);
    EXPECT_LT(warm.aggregate.l1dMisses, cold.aggregate.l1dMisses);
}

TEST(VCoreSim, ReconfigurationChargesCycles)
{
    SimConfig cfg;
    FabricPlacement placement(cfg.numSlices, cfg.numL2Banks);
    L2System l2(cfg, {placement});
    VCoreSim sim(cfg, 0, placement, l2);
    TraceGenerator gen(profileFor("gcc"), 1);
    StreamingTraceSource src(gen, 2000);
    sim.step(src, 1000);
    const Cycles before = sim.currentCycle();
    sim.chargeReconfiguration(10000);
    EXPECT_GE(sim.currentCycle(), before + 10000);
    sim.step(src, 1000);
    EXPECT_EQ(sim.stats().instructionsCommitted, 2000u);
}

TEST(VmSim, ParsecRunsFourVCores)
{
    const VmResult r = runOnce("dedup", 2, 2, 4000);
    EXPECT_EQ(r.perVCore.size(), 4u);
    EXPECT_EQ(r.aggregate.instructionsCommitted, 4u * 4000u);
    for (const SimStats &st : r.perVCore)
        EXPECT_GT(st.instructionsCommitted, 0u);
}

TEST(VmSim, SharedWritesCauseInvalidations)
{
    // dedup shares 15% of its heap; writes must invalidate remote L1s
    // through the L2 directory (section 3.5).
    const VmResult r = runOnce("dedup", 4, 2, 6000);
    EXPECT_GT(r.aggregate.coherenceInvalidations, 0u);
}

TEST(VmSim, SingleThreadHasNoCoherenceTraffic)
{
    const VmResult r = runOnce("gcc", 4, 2);
    EXPECT_EQ(r.aggregate.coherenceInvalidations, 0u);
}

namespace {

/**
 * The prewarm walk line by line: per VCore its heap, the shared
 * region and its hot region, each capped at 2 x L2 + 4 x L1 lines
 * and walked top line first.  Calls @p visit(vcore, addr) per line.
 */
template <class Visit>
void
walkPrewarmLines(const SimConfig &cfg, unsigned vcores,
                 const BenchmarkProfile &p, Visit visit)
{
    using namespace addrmap;
    const std::uint64_t l2_lines = std::uint64_t(cfg.numL2Banks) *
                                   vcores * cfg.l2Bank.sizeBytes / kLine;
    const std::uint64_t l1_lines =
        std::uint64_t(cfg.numSlices) * cfg.l1d.sizeBytes / kLine;
    auto region = [&](unsigned v, Addr base, std::uint64_t lines) {
        const std::uint64_t n =
            std::min<std::uint64_t>(lines, 2 * l2_lines + 4 * l1_lines);
        for (std::uint64_t r = n; r-- > 0;)
            visit(v, base + r * kLine);
    };
    for (unsigned v = 0; v < vcores; ++v) {
        region(v, threadBase(kHeapBase, v), p.workingSetBytes / kLine);
        if (p.multithreaded && p.sharedFrac > 0.0)
            region(v, kSharedBase, p.sharedBytes / kLine);
        region(v, threadBase(kHotBase, v),
               std::max<std::uint64_t>(1, p.hotBytes / kLine));
    }
}

/**
 * VmSim::prewarm against the line-by-line walk replayed through
 * prefillLine(): every walked line probes the same in every L1D and
 * in the L2, and a streamed run from each ends bit-identically.
 */
void
expectPrewarmMatchesLineWalk(const BenchmarkProfile &p,
                             const SimConfig &cfg)
{
    const unsigned vcores = p.multithreaded ? p.numThreads : 1;
    std::ostringstream label;
    label << p.name << " banks " << cfg.numL2Banks << " slices "
          << cfg.numSlices << " blocks " << cfg.l1d.blockBytes << "/"
          << cfg.l2Bank.blockBytes;

    VmSim fast(cfg, vcores);
    fast.prewarm(p);
    VmSim ref(cfg, vcores);
    walkPrewarmLines(cfg, vcores, p, [&](unsigned v, Addr a) {
        ref.vcore(v).prefillLine(a);
    });

    std::vector<std::vector<CacheModel *>> fast_l1, ref_l1;
    for (unsigned v = 0; v < vcores; ++v) {
        fast_l1.push_back(fast.vcore(v).l1dPointers());
        ref_l1.push_back(ref.vcore(v).l1dPointers());
    }
    std::size_t l1_diffs = 0, l2_diffs = 0, l2_held = 0;
    walkPrewarmLines(cfg, vcores, p, [&](unsigned, Addr a) {
        for (unsigned v = 0; v < vcores; ++v) {
            for (std::size_t s = 0; s < fast_l1[v].size(); ++s)
                l1_diffs += fast_l1[v][s]->probe(a) !=
                            ref_l1[v][s]->probe(a);
        }
        l2_diffs += fast.l2().probeHit(a) != ref.l2().probeHit(a);
        l2_held += ref.l2().probeHit(a);
    });
    EXPECT_EQ(l1_diffs, 0u) << label.str();
    EXPECT_EQ(l2_diffs, 0u) << label.str();
    EXPECT_EQ(l2_held > 0, cfg.numL2Banks > 0) << label.str();

    const auto gen = std::make_shared<const TraceGenerator>(p, 1);
    const VmResult a = fast.run(streamSources(gen, 3000));
    const VmResult b = ref.run(streamSources(gen, 3000));
    EXPECT_EQ(a.cycles, b.cycles) << label.str();
    ASSERT_EQ(a.perVCore.size(), b.perVCore.size());
    for (std::size_t v = 0; v < a.perVCore.size(); ++v) {
        EXPECT_EQ(a.perVCore[v].toJson(), b.perVCore[v].toJson())
            << label.str() << " VCore " << v;
    }
}

} // namespace

TEST(VmSimPrewarm, ResidentInstallMatchesTheLineWalk)
{
    for (const BenchmarkProfile &p : builtinProfiles()) {
        for (unsigned banks : {0u, 1u, 2u, 8u, 128u}) {
            for (unsigned slices : {1u, 3u, 8u}) {
                SimConfig cfg;
                cfg.numL2Banks = banks;
                cfg.numSlices = slices;
                expectPrewarmMatchesLineWalk(p, cfg);
            }
        }
    }
}

TEST(VmSimPrewarm, ResidentInstallMatchesTheLineWalkAcrossBlockSizes)
{
    // 128 B blocks merge two walked lines into one visit; 32 B blocks
    // leave every other block unwalked.  An L1D block wider than an
    // L2 line is the case where every walked line keeps its directory
    // bit.
    struct Blocks
    {
        std::uint32_t l1d, l2;
    };
    for (const Blocks blocks : {Blocks{128, 128}, Blocks{128, 64},
                                Blocks{32, 64}, Blocks{64, 32}}) {
        for (const BenchmarkProfile &p : builtinProfiles()) {
            for (unsigned banks : {0u, 2u, 8u}) {
                SimConfig cfg;
                cfg.l1d.blockBytes = blocks.l1d;
                cfg.l2Bank.blockBytes = blocks.l2;
                cfg.numL2Banks = banks;
                cfg.numSlices = 3;
                expectPrewarmMatchesLineWalk(p, cfg);
            }
        }
    }
}

TEST(VmSimPrewarm, RefusesAUsedVmSim)
{
    const BenchmarkProfile &p = profileFor("dedup");
    SimConfig cfg;
    VmSim twice(cfg, p.numThreads);
    twice.prewarm(p);
    EXPECT_DEATH(twice.prewarm(p), "fresh VmSim");

    VmSim ran(cfg, 1);
    TraceGenerator gen(profileFor("gcc"), 1);
    ran.run(gen.generateThreads(500));
    EXPECT_DEATH(ran.prewarm(profileFor("gcc")), "fresh VmSim");
}

TEST(ReconfigManager, CostsFollowSection510)
{
    const ReconfigManager rm;
    const VCoreShape a{4, 2}, same{4, 2};
    EXPECT_EQ(rm.transitionCost(a, same), 0u);
    // Slice-only change: 500 cycles.
    EXPECT_EQ(rm.transitionCost({4, 2}, {4, 6}), 500u);
    // Any bank change flushes the L2: 10,000 cycles.
    EXPECT_EQ(rm.transitionCost({4, 2}, {8, 2}), 10000u);
    EXPECT_EQ(rm.transitionCost({4, 2}, {8, 6}), 10000u);
}

TEST(ReconfigManager, FlushRequirements)
{
    const ReconfigManager rm;
    EXPECT_TRUE(rm.requiresCacheFlush({4, 2}, {2, 2}));
    EXPECT_FALSE(rm.requiresCacheFlush({4, 2}, {4, 8}));
    EXPECT_TRUE(rm.requiresRegisterFlush({4, 4}, {4, 2}));
    EXPECT_FALSE(rm.requiresRegisterFlush({4, 2}, {4, 4}));
}

TEST(PerfModel, MemoizesResults)
{
    PerfModel pm(4000);
    const double a = pm.performance("gcc", 2, 2);
    const double b = pm.performance("gcc", 2, 2);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
}

TEST(PerfModel, BankGridCoversPaperRange)
{
    const auto &grid = l2BankGrid();
    EXPECT_EQ(grid.front(), 0u);
    EXPECT_EQ(grid.back(), 128u); // 8 MB in 64 KB banks
    EXPECT_EQ(banksToKb(128), 8192u);
    EXPECT_EQ(banksToKb(0), 0u);
}

TEST(PerfModel, DiskCacheRoundTrips)
{
    const std::string path = "test_perf_cache.csv";
    std::filesystem::remove(path);
    {
        PerfModel pm(4000);
        pm.enableDiskCache(path);
        pm.performance("hmmer", 1, 1);
    }
    ASSERT_TRUE(std::filesystem::exists(path));
    {
        PerfModel fresh(4000);
        fresh.enableDiskCache(path);
        // Identical value must come back without re-simulation; verify
        // by comparing against an uncached model.
        PerfModel reference(4000);
        EXPECT_DOUBLE_EQ(fresh.performance("hmmer", 1, 1),
                         reference.performance("hmmer", 1, 1));
    }
    {
        // A model with different parameters must ignore the cache.
        PerfModel other(2000);
        other.enableDiskCache(path);
        EXPECT_GT(other.performance("hmmer", 1, 1), 0.0);
    }
    std::filesystem::remove(path);
}

TEST(PerfModel, DiskCacheDropsCorruptRowsKeepsGoodOnes)
{
    const std::string path = "test_perf_cache_corrupt.csv";
    std::filesystem::remove(path);
    {
        // Hand-written cache mixing valid rows (planted perf values no
        // simulation would produce, so a load is unambiguous) with the
        // corruption modes enableDiskCache must reject: garbage text,
        // a row truncated mid-write, out-of-range slices, and a
        // non-finite perf.  Loading must keep every good row and drop
        // every bad one with a single summarized warning.
        std::ofstream out(path);
        out << "hmmer,4000,1,2,2,123.5\n";
        out << "this is not a cache row\n";
        out << "gcc,4000,1,1\n";             // truncated mid-row
        out << "sjeng,4000,1,1,99,1.0\n";    // slices > kMaxSlices
        out << "mcf,4000,1,1,1,nan\n";       // non-finite perf
        out << "gcc,4000,1,4,1,67.25\n";
    }
    PerfModel pm(4000);
    pm.enableDiskCache(path);
    // Both valid rows came back memoized: the planted values are
    // returned verbatim, proving no re-simulation happened.
    EXPECT_DOUBLE_EQ(pm.performance("hmmer", 2, 2), 123.5);
    EXPECT_DOUBLE_EQ(pm.performance("gcc", 4, 1), 67.25);
    // The NaN row was dropped, not memoized: the point re-simulates
    // to the same finite value an uncached model produces.
    PerfModel reference(4000);
    const double resim = pm.performance("mcf", 1, 1);
    EXPECT_TRUE(std::isfinite(resim));
    EXPECT_DOUBLE_EQ(resim, reference.performance("mcf", 1, 1));
    std::filesystem::remove(path);
}

TEST(PerfModel, DiskCacheNeverReplacesAMemoizedPoint)
{
    const std::string path = "test_perf_cache_memo.csv";
    std::filesystem::remove(path);
    PerfModel pm(4000);
    const double simulated = pm.performance("hmmer", 2, 2);
    {
        // A planted value for the point already read, and two rows
        // for another point: within the file the last row wins.
        std::ofstream out(path);
        out << "hmmer,4000,1,2,2,123.5\n";
        out << "gcc,4000,1,4,1,1.0\n";
        out << "gcc,4000,1,4,1,67.25\n";
    }
    pm.enableDiskCache(path);
    EXPECT_DOUBLE_EQ(pm.performance("hmmer", 2, 2), simulated);
    EXPECT_NE(simulated, 123.5);
    EXPECT_DOUBLE_EQ(pm.performance("gcc", 4, 1), 67.25);
    std::filesystem::remove(path);
}

TEST(PerfModel, PhaseProfilesWork)
{
    PerfModel pm(4000);
    const auto phases = gccPhaseProfiles();
    const double p = pm.performance(phases[0], 2, 2);
    EXPECT_GT(p, 0.0);
    // Distinct phases are memoized under distinct names.
    EXPECT_NE(pm.performance(phases[1], 2, 2), 0.0);
}

/** Property sweep over the whole configuration grid. */
class ConfigSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(ConfigSweep, EveryShapeRunsToCompletion)
{
    const auto [slices, banks] = GetParam();
    const VmResult r = runOnce("gcc", banks, slices, 3000);
    EXPECT_EQ(r.aggregate.instructionsCommitted, 3000u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LE(r.throughput(), 2.0 * slices);
}

// Slice counts deliberately mix powers of two (mask-indexed fetch and
// load/store sorting) and non-powers (modulo fallback); see
// VCoreSim::fetchSliceOf / homeSliceOf.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConfigSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 6u, 7u, 8u),
                       ::testing::Values(0u, 1u, 4u, 32u, 128u)));

/** The pow2 fast path and the modulo fallback must spread work the
 *  same way their shared definition says: slice = index mod s. */
TEST(VCoreSim, SliceSortMatchesModuloForAllSliceCounts)
{
    for (unsigned slices : {2u, 3u, 4u, 6u, 8u}) {
        const VmResult r = runOnce("gcc", 1, slices, 4000);
        EXPECT_EQ(r.aggregate.instructionsCommitted, 4000u)
            << "slices " << slices;
        // Re-running is bit-identical regardless of indexing path.
        const VmResult r2 = runOnce("gcc", 1, slices, 4000);
        EXPECT_EQ(r.cycles, r2.cycles) << "slices " << slices;
    }
}
