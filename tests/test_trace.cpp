/**
 * @file
 * Tests for the synthetic trace generator: determinism, instruction
 * mix, the static program skeleton's front-end honesty (fixed PCs and
 * targets), the chain-structured ILP model, memory regions, and the
 * multithreaded / phase variants.
 */

#include <map>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "trace/address_map.hh"
#include "trace/generator.hh"
#include "trace/instruction.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

Trace
genTrace(const std::string &name, std::size_t n = 20000,
         std::uint64_t seed = 1)
{
    return TraceGenerator(profileFor(name), seed).generate(n);
}

} // namespace

TEST(Profiles, FifteenBenchmarks)
{
    // The paper's suite: apache + SPEC CINT subset + PARSEC subset.
    EXPECT_EQ(builtinProfiles().size(), 15u);
    for (const char *required :
         {"apache", "bzip", "gcc", "astar", "libquantum", "perlbench",
          "sjeng", "hmmer", "gobmk", "mcf", "omnetpp", "h264ref",
          "dedup", "swaptions", "ferret"}) {
        EXPECT_TRUE(hasProfile(required)) << required;
    }
    EXPECT_FALSE(hasProfile("nonexistent"));
}

TEST(Profiles, ParsecIsMultithreaded)
{
    for (const char *mt : {"dedup", "swaptions", "ferret"}) {
        EXPECT_TRUE(profileFor(mt).multithreaded) << mt;
        EXPECT_EQ(profileFor(mt).numThreads, 4u) << mt;
    }
    EXPECT_FALSE(profileFor("gcc").multithreaded);
}

TEST(Profiles, FractionsAreSane)
{
    for (const BenchmarkProfile &p : builtinProfiles()) {
        EXPECT_GT(p.branchFrac, 0.0) << p.name;
        EXPECT_LT(p.loadFrac + p.storeFrac + p.branchFrac + p.mulFrac,
                  1.0)
            << p.name;
        EXPECT_GE(p.hotFrac, 0.0);
        EXPECT_LE(p.hotFrac, 1.0);
        EXPECT_GT(p.workingSetBytes, 0u);
    }
}

TEST(Generator, DeterministicForSameSeed)
{
    const Trace a = genTrace("gcc", 5000, 7);
    const Trace b = genTrace("gcc", 5000, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].effAddr, b[i].effAddr);
        EXPECT_EQ(a[i].taken, b[i].taken);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    const Trace a = genTrace("gcc", 5000, 1);
    const Trace b = genTrace("gcc", 5000, 2);
    std::size_t diff = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        diff += (a[i].pc != b[i].pc || a[i].effAddr != b[i].effAddr);
    EXPECT_GT(diff, a.size() / 10);
}

TEST(Generator, ExactLength)
{
    for (std::size_t n : {1u, 17u, 1000u})
        EXPECT_EQ(genTrace("gcc", n).size(), n);
}

TEST(Generator, MixMatchesProfile)
{
    const BenchmarkProfile &p = profileFor("gcc");
    const TraceSummary s = summarize(genTrace("gcc", 40000));
    EXPECT_NEAR(s.loadFrac, p.loadFrac, 0.03);
    EXPECT_NEAR(s.storeFrac, p.storeFrac, 0.02);
    EXPECT_NEAR(s.branchFrac, p.branchFrac, 0.05);
}

TEST(Generator, BranchTargetsAreStable)
{
    // Front-end honesty: the same branch PC always jumps to the same
    // target (section 3.1's interleaved-fetch requirement).
    const Trace t = genTrace("sjeng", 30000);
    std::unordered_map<Addr, Addr> target_of;
    for (const TraceInst &ti : t.instructions) {
        if (!ti.isBranch() || !ti.taken)
            continue;
        auto [it, fresh] = target_of.emplace(ti.pc, ti.target);
        if (!fresh) {
            EXPECT_EQ(it->second, ti.target) << std::hex << ti.pc;
        }
    }
    EXPECT_GT(target_of.size(), 10u);
}

TEST(Generator, PcsLiveInTheCodeRegion)
{
    const BenchmarkProfile &p = profileFor("gcc");
    const Trace t = genTrace("gcc", 20000);
    for (const TraceInst &ti : t.instructions) {
        EXPECT_GE(ti.pc, addrmap::kCodeBase);
        // The skeleton is allowed modest slack over codeBytes from
        // geometric block lengths.
        EXPECT_LT(ti.pc, addrmap::kCodeBase + 3 * p.codeBytes);
        EXPECT_EQ(ti.pc % 4, 0u);
    }
}

TEST(Generator, MemoryAddressesInKnownRegions)
{
    const Trace t = genTrace("gcc", 20000);
    for (const TraceInst &ti : t.instructions) {
        if (!ti.isMemory())
            continue;
        const bool hot = ti.effAddr >= addrmap::kHotBase &&
                         ti.effAddr < addrmap::kHeapBase;
        const bool heap = ti.effAddr >= addrmap::kHeapBase &&
                          ti.effAddr < addrmap::kStreamBase;
        const bool stream = ti.effAddr >= addrmap::kStreamBase &&
                            ti.effAddr < addrmap::kSharedBase;
        const bool shared = ti.effAddr >= addrmap::kSharedBase;
        EXPECT_TRUE(hot || heap || stream || shared)
            << std::hex << ti.effAddr;
    }
}

TEST(Generator, HotFractionRoughlyHonored)
{
    const BenchmarkProfile &p = profileFor("hmmer");
    const Trace t = genTrace("hmmer", 40000);
    std::size_t hot = 0, mem = 0;
    for (const TraceInst &ti : t.instructions) {
        if (!ti.isMemory())
            continue;
        ++mem;
        hot += (ti.effAddr >= addrmap::kHotBase &&
                ti.effAddr < addrmap::kHeapBase);
    }
    EXPECT_NEAR(static_cast<double>(hot) / mem, p.hotFrac, 0.05);
}

TEST(Generator, WorkingSetBounded)
{
    const BenchmarkProfile &p = profileFor("sjeng");
    const Trace t = genTrace("sjeng", 40000);
    Addr max_heap = 0;
    for (const TraceInst &ti : t.instructions) {
        if (ti.isMemory() && ti.effAddr >= addrmap::kHeapBase &&
            ti.effAddr < addrmap::kStreamBase) {
            max_heap = std::max(max_heap, ti.effAddr);
        }
    }
    EXPECT_LT(max_heap, addrmap::kHeapBase + p.workingSetBytes + 64);
}

TEST(Generator, ChainStructureExpressesIlp)
{
    // High-ILP profiles must touch more distinct chain registers.
    auto distinct_chain_regs = [](const Trace &t) {
        std::set<RegIndex> regs;
        for (const TraceInst &ti : t.instructions) {
            if (ti.dst != kNoReg && ti.dst >= 8 && ti.dst < 24)
                regs.insert(ti.dst);
        }
        return regs.size();
    };
    EXPECT_GT(distinct_chain_regs(genTrace("h264ref", 10000)),
              distinct_chain_regs(genTrace("hmmer", 10000)));
}

TEST(Generator, RegistersWithinArchitecturalRange)
{
    const Trace t = genTrace("apache", 20000);
    for (const TraceInst &ti : t.instructions) {
        for (RegIndex r : {ti.src1, ti.src2, ti.dst}) {
            if (r != kNoReg) {
                EXPECT_LT(r, 32);
            }
        }
        if (ti.isBranch()) {
            EXPECT_EQ(ti.dst, kNoReg);
        }
        if (ti.op == OpClass::Store) {
            EXPECT_EQ(ti.dst, kNoReg);
        }
        if (ti.op == OpClass::Load || ti.op == OpClass::IntAlu ||
            ti.op == OpClass::IntMul) {
            EXPECT_NE(ti.dst, kNoReg);
        }
    }
}

TEST(Generator, ThreadsGetDistinctPrivateRegions)
{
    const TraceGenerator gen(profileFor("dedup"), 3);
    const auto traces = gen.generateThreads(5000);
    ASSERT_EQ(traces.size(), 4u);
    // Private heaps must not overlap between threads.
    for (unsigned t = 0; t < 4; ++t) {
        EXPECT_EQ(traces[t].threadId, t);
        for (const TraceInst &ti : traces[t].instructions) {
            if (!ti.isMemory() || ti.effAddr >= addrmap::kSharedBase)
                continue;
            if (ti.effAddr >= addrmap::kHeapBase &&
                ti.effAddr < addrmap::kStreamBase) {
                const Addr base =
                    addrmap::threadBase(addrmap::kHeapBase, t);
                EXPECT_GE(ti.effAddr, base);
                EXPECT_LT(ti.effAddr, base + addrmap::kThreadStride);
            }
        }
    }
}

TEST(Generator, SharedRegionOnlyForMultithreaded)
{
    auto shared_refs = [](const Trace &t) {
        std::size_t n = 0;
        for (const TraceInst &ti : t.instructions)
            n += ti.isMemory() && ti.effAddr >= addrmap::kSharedBase;
        return n;
    };
    EXPECT_EQ(shared_refs(genTrace("gcc", 20000)), 0u);
    const TraceGenerator gen(profileFor("dedup"), 1);
    const auto traces = gen.generateThreads(20000);
    EXPECT_GT(shared_refs(traces[0]), 0u);
}

TEST(Generator, SingleThreadedGeneratesOneTrace)
{
    const TraceGenerator gen(profileFor("gcc"), 1);
    EXPECT_EQ(gen.generateThreads(100).size(), 1u);
}

TEST(Phases, TenPhasesDerivedFromGcc)
{
    const auto phases = gccPhaseProfiles();
    ASSERT_EQ(phases.size(), 10u);
    std::set<std::string> names;
    for (const BenchmarkProfile &p : phases) {
        names.insert(p.name);
        EXPECT_EQ(p.name.rfind("gcc.phase", 0), 0u);
        EXPECT_GT(p.workingSetBytes, 0u);
    }
    EXPECT_EQ(names.size(), 10u);
    // Phases genuinely differ.
    EXPECT_NE(phases.front().workingSetBytes,
              phases.back().workingSetBytes);
}

TEST(Summary, CountsDistinctLines)
{
    Trace t;
    t.benchmark = "synthetic";
    for (int i = 0; i < 4; ++i) {
        TraceInst ti;
        ti.op = OpClass::Load;
        ti.dst = 8;
        ti.effAddr = static_cast<Addr>(i % 2) * 64;
        t.instructions.push_back(ti);
    }
    EXPECT_EQ(summarize(t).distinctLines, 2u);
    EXPECT_DOUBLE_EQ(summarize(t).loadFrac, 1.0);
}

/** Property sweep: every profile generates clean traces. */
class AllProfiles : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllProfiles, GeneratesWellFormedTraces)
{
    const BenchmarkProfile &p = profileFor(GetParam());
    TraceGenerator gen(p, 11);
    const Trace t = gen.generate(8000);
    EXPECT_EQ(t.size(), 8000u);
    EXPECT_EQ(t.benchmark, p.name);
    const TraceSummary s = summarize(t);
    EXPECT_GT(s.branchFrac, 0.0);
    EXPECT_GT(s.loadFrac, 0.0);
    EXPECT_GT(s.distinctLines, 10u);
    for (const TraceInst &ti : t.instructions) {
        if (ti.isMemory()) {
            EXPECT_NE(ti.effAddr, 0u);
        }
        if (ti.isBranch() && ti.taken) {
            EXPECT_NE(ti.target, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(EveryBenchmark, AllProfiles,
                         ::testing::ValuesIn(benchmarkNames()));
