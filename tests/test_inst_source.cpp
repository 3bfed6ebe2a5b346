/**
 * @file
 * The streaming trace pipeline's contract tests.
 *
 * Three layers of the determinism contract from trace/inst_source.hh:
 *
 *  1. Differential emission: across every builtin profile, several
 *     seeds, and every thread, StreamingTraceSource emits exactly the
 *     instruction sequence TraceGenerator::generateThreads()
 *     materializes -- field by field (TraceInst has padding bytes, so
 *     memcmp would compare garbage).
 *  2. Bit-identical simulation: a streamed VmSim run produces the
 *     SimStats (via toJson) of VmSim::run() over the pre-generated
 *     traces, for single- and multithreaded workloads, and every
 *     PerfModel point equals that materialized replay.
 *  3. Memory regression: streaming storage stays O(kBufferInsts)
 *     regardless of the instruction budget.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/sim_config.hh"
#include "core/perf_model.hh"
#include "core/vm_sim.hh"
#include "exec/sweep.hh"
#include "trace/generator.hh"
#include "trace/inst_source.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

/** Field-wise equality; TraceInst's 3 padding bytes bar memcmp. */
void
expectInstEq(const TraceInst &a, const TraceInst &b, std::size_t i,
             const std::string &what)
{
    ASSERT_TRUE(a.pc == b.pc && a.effAddr == b.effAddr &&
                a.target == b.target && a.src1 == b.src1 &&
                a.src2 == b.src2 && a.dst == b.dst && a.op == b.op &&
                a.taken == b.taken)
        << what << ": instruction " << i << " differs (pc "
        << a.pc << " vs " << b.pc << ")";
}

/** Drain @p src in mixed-size pulls to exercise the window seams. */
std::vector<TraceInst>
drain(InstSource &src)
{
    std::vector<TraceInst> out;
    // Alternate single-instruction next() pulls with batched windows
    // so both consumption paths cross refill boundaries.
    bool single = true;
    while (!src.exhausted()) {
        if (single) {
            out.push_back(src.next());
        } else {
            std::size_t avail = 0;
            const TraceInst *w = src.window(avail);
            EXPECT_NE(w, nullptr) << "window after !exhausted()";
            if (!w)
                break;
            const std::size_t run = std::min<std::size_t>(avail, 37);
            out.insert(out.end(), w, w + run);
            src.consume(run);
        }
        single = !single;
    }
    return out;
}

std::vector<TraceInst>
drain(std::unique_ptr<InstSource> src)
{
    return drain(*src);
}

TEST(StreamingDifferential, AllProfilesSeedsThreads)
{
    // Every builtin profile x several seeds; a limit straddling
    // multiple refill buffers (kBufferInsts = 1024) without making
    // the full cross product slow.
    constexpr std::size_t kInstructions = 4000;
    for (const BenchmarkProfile &p : builtinProfiles()) {
        for (const std::uint64_t seed : {1ull, 7ull, 9001ull}) {
            const auto gen =
                std::make_shared<const TraceGenerator>(p, seed);
            const std::vector<Trace> traces =
                gen->generateThreads(kInstructions);
            auto sources = streamSources(gen, kInstructions);
            ASSERT_EQ(sources.size(), traces.size())
                << p.name << ": thread count mismatch";
            for (std::size_t t = 0; t < traces.size(); ++t) {
                const std::vector<TraceInst> streamed =
                    drain(std::move(sources[t]));
                ASSERT_EQ(streamed.size(),
                          traces[t].instructions.size())
                    << p.name << " seed " << seed << " thread " << t;
                for (std::size_t i = 0; i < streamed.size(); ++i) {
                    expectInstEq(streamed[i],
                                 traces[t].instructions[i], i,
                                 p.name + " seed " +
                                     std::to_string(seed) +
                                     " thread " + std::to_string(t));
                }
            }
        }
    }
}

TEST(StreamingDifferential, PrefixOfLongerWalkIsIdentical)
{
    // A streaming source bounded to n must match the first n
    // instructions of a longer materialized walk: the bound cuts
    // between instructions, never mid-draw.
    const BenchmarkProfile &p = profileFor("mcf");
    TraceGenerator gen(p, 42);
    const Trace full = gen.generate(5000);
    StreamingTraceSource src(gen, 2000);
    const std::vector<TraceInst> streamed = drain(src);
    ASSERT_EQ(streamed.size(), 2000u);
    for (std::size_t i = 0; i < streamed.size(); ++i)
        expectInstEq(streamed[i], full.instructions[i], i, "prefix");
}

TEST(StreamingDifferential, SkipPreservesAlignment)
{
    // skip() must consume exactly the same RNG draws as emitting, so
    // the post-skip stream equals the materialized suffix.
    const BenchmarkProfile &p = profileFor("gcc");
    TraceGenerator gen(p, 3);
    const Trace full = gen.generate(6000);
    StreamingTraceSource src(gen, 6000);
    EXPECT_EQ(src.skip(2500), 2500u);
    EXPECT_EQ(src.consumed(), 2500u);
    const std::vector<TraceInst> tail = drain(src);
    ASSERT_EQ(tail.size(), 3500u);
    for (std::size_t i = 0; i < tail.size(); ++i)
        expectInstEq(tail[i], full.instructions[2500 + i], i, "tail");
    EXPECT_EQ(src.skip(10), 0u) << "skip past end reports 0";
}

TEST(MaterializedSource, ServesBorrowedTraceOnce)
{
    const BenchmarkProfile &p = profileFor("bzip");
    TraceGenerator gen(p, 5);
    const Trace trace = gen.generate(1000);
    MaterializedTraceSource src(trace);
    const std::vector<TraceInst> served = drain(src);
    ASSERT_EQ(served.size(), trace.instructions.size());
    for (std::size_t i = 0; i < served.size(); ++i)
        expectInstEq(served[i], trace.instructions[i], i,
                     "materialized");
    EXPECT_EQ(src.consumed(), trace.instructions.size());
    std::size_t avail = 1;
    EXPECT_EQ(src.window(avail), nullptr) << "served exactly once";
    EXPECT_EQ(avail, 0u);

    const Trace empty;
    MaterializedTraceSource none(empty);
    EXPECT_TRUE(none.exhausted());
}

/** The two modes' VmResults, same workload and config. */
void
expectModesBitIdentical(const BenchmarkProfile &p, std::uint64_t seed,
                        std::size_t instructions)
{
    SimConfig cfg;
    cfg.numSlices = 2;
    cfg.numL2Banks = 4;
    cfg.seed = seed;
    const unsigned vcores = p.multithreaded ? p.numThreads : 1;

    const auto gen = std::make_shared<const TraceGenerator>(p, seed);
    VmSim streamVm(cfg, vcores);
    streamVm.prewarm(p);
    const VmResult streamed =
        streamVm.run(streamSources(gen, instructions));

    VmSim matVm(cfg, vcores);
    matVm.prewarm(p);
    const VmResult materialized =
        matVm.run(gen->generateThreads(instructions));

    EXPECT_EQ(streamed.cycles, materialized.cycles) << p.name;
    ASSERT_EQ(streamed.perVCore.size(), materialized.perVCore.size());
    EXPECT_EQ(streamed.aggregate.toJson(),
              materialized.aggregate.toJson())
        << p.name << ": aggregate SimStats diverge across modes";
    for (std::size_t i = 0; i < streamed.perVCore.size(); ++i) {
        EXPECT_EQ(streamed.perVCore[i].toJson(),
                  materialized.perVCore[i].toJson())
            << p.name << " VCore " << i;
    }
}

TEST(ModeEquivalence, SingleThreadedVmBitIdentical)
{
    expectModesBitIdentical(profileFor("gcc"), 1, 8000);
    expectModesBitIdentical(profileFor("libquantum"), 11, 8000);
}

TEST(ModeEquivalence, MultithreadedVmBitIdentical)
{
    // Shared-L2 contention depends on the global instruction order;
    // the round-robin interleaving must not depend on the backing.
    expectModesBitIdentical(profileFor("dedup"), 1, 4000);
    expectModesBitIdentical(profileFor("swaptions"), 17, 4000);
}

TEST(ModeEquivalence, PerfModelSurfaceMatchesAMaterializedReplay)
{
    // PerfModel streams every point; each must equal VmSim::run()
    // over the pre-generated traces at the point's derived seed.
    constexpr std::size_t kInstructions = 3000;
    constexpr std::uint64_t kSeed = 7;
    PerfModel pm(kInstructions, kSeed);
    for (const char *name : {"gcc", "mcf", "ferret"}) {
        const BenchmarkProfile &p = profileFor(name);
        const unsigned vcores = p.multithreaded ? p.numThreads : 1;
        const std::vector<Trace> traces =
            TraceGenerator(p, kSeed).generateThreads(kInstructions);
        for (unsigned banks : {0u, 4u}) {
            for (unsigned slices : {1u, 4u}) {
                SimConfig cfg;
                cfg.numSlices = slices;
                cfg.numL2Banks = banks;
                cfg.seed =
                    exec::deriveJobSeed(kSeed, name, banks, slices);
                VmSim vm(cfg, vcores);
                vm.prewarm(p);
                const double replayed =
                    vm.run(traces).throughput() / vcores;
                EXPECT_EQ(pm.performance(name, banks, slices),
                          replayed)
                    << name << " banks=" << banks
                    << " slices=" << slices;
            }
        }
    }
}

TEST(StreamingMemory, BufferStaysBoundedOverLongRun)
{
    // The whole point of streaming: resident storage is O(buffer),
    // not O(instructions).  Drain 400k instructions (400 refills) and
    // watch the buffer capacity never grow past kBufferInsts.
    const BenchmarkProfile &p = profileFor("hmmer");
    TraceGenerator gen(p, 1);
    constexpr std::uint64_t kLimit = 400000;
    StreamingTraceSource src(gen, kLimit);
    EXPECT_LE(src.bufferCapacity(),
              StreamingTraceSource::kBufferInsts);
    std::uint64_t drained = 0;
    while (!src.exhausted()) {
        std::size_t avail = 0;
        const TraceInst *w = src.window(avail);
        ASSERT_NE(w, nullptr);
        ASSERT_LE(avail, StreamingTraceSource::kBufferInsts);
        src.consume(avail);
        drained += avail;
        ASSERT_LE(src.bufferCapacity(),
                  StreamingTraceSource::kBufferInsts)
            << "buffer grew after " << drained << " instructions";
    }
    EXPECT_EQ(drained, kLimit);
    EXPECT_EQ(src.consumed(), kLimit);
}

TEST(StreamingMemory, SmallLimitAllocatesSmallBuffer)
{
    const BenchmarkProfile &p = profileFor("gcc");
    TraceGenerator gen(p, 1);
    StreamingTraceSource src(gen, 64);
    EXPECT_LE(src.bufferCapacity(), 64u)
        << "a 64-instruction stream must not allocate a full buffer";
}

} // namespace
