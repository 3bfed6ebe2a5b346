/**
 * @file
 * Tests for the cache substrate: the set-associative tag model and
 * the banked, distance-aware, directory-coherent L2 system.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_model.hh"
#include "cache/l2_system.hh"
#include "common/random.hh"

using namespace sharch;

namespace {

CacheConfig
tinyCache(std::uint32_t size = 512, std::uint32_t assoc = 2)
{
    return CacheConfig{size, 64, assoc, 3};
}

} // namespace

TEST(CacheModel, MissThenHit)
{
    CacheModel c(tinyCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1030, false).hit); // same 64 B line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheModel, LruEvictsLeastRecentlyUsed)
{
    // Direct construction of set conflicts is awkward with hashed
    // indexing; instead verify the global property that with capacity
    // for N lines, the N most recently used lines mostly survive.
    CacheModel c(tinyCache(8 * 64, 8)); // fully associative, 8 lines
    for (Addr a = 0; a < 8; ++a)
        c.access(a * 64, false);
    c.access(8 * 64, false); // evicts line 0 (LRU)
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(2 * 64, false).hit);
}

TEST(CacheModel, WritebackOnDirtyEviction)
{
    CacheModel c(tinyCache(2 * 64, 2)); // one set, two ways
    c.access(0x0, true);                // dirty
    c.access(0x40, false);
    const AccessResult r = c.access(0x80, false); // evicts dirty 0x0
    EXPECT_TRUE(r.writebackVictim);
    EXPECT_EQ(r.victimLine, 0u);
}

TEST(CacheModel, CleanEvictionHasNoWriteback)
{
    CacheModel c(tinyCache(2 * 64, 2));
    c.access(0x0, false);
    c.access(0x40, false);
    EXPECT_FALSE(c.access(0x80, false).writebackVictim);
}

TEST(CacheModel, InvalidateRemovesLine)
{
    CacheModel c(tinyCache());
    c.access(0x2000, true);
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_TRUE(c.invalidate(0x2000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000)); // already gone
    EXPECT_FALSE(c.access(0x2000, false).hit);
}

TEST(CacheModel, ProbeDoesNotDisturbLru)
{
    CacheModel c(tinyCache(2 * 64, 2));
    c.access(0x0, false);
    c.access(0x40, false);
    // Probing 0x0 must not refresh it.
    EXPECT_TRUE(c.probe(0x0));
    c.access(0x80, false); // evicts 0x0, the true LRU
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_TRUE(c.probe(0x40));
}

TEST(CacheModel, FlushCountsDirtyLines)
{
    CacheModel c(tinyCache(4 * 64, 4));
    c.access(0x0, true);
    c.access(0x40, true);
    c.access(0x80, false);
    EXPECT_EQ(c.flushAll(), 2u);
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_EQ(c.flushAll(), 0u);
}

TEST(CacheModel, HashedIndexSpreadsInterleavedStreams)
{
    // A Slice receives every s-th line; hashing must still use the
    // whole cache.  With 64 lines of capacity and a stride-8 stream of
    // 64 distinct lines, a modulo index would thrash one-eighth of the
    // sets; hashed indexing keeps nearly all resident.
    CacheModel c(tinyCache(64 * 64, 2));
    for (int rep = 0; rep < 4; ++rep) {
        for (Addr i = 0; i < 56; ++i)
            c.access(i * 8 * 64, false);
    }
    std::size_t resident = 0;
    for (Addr i = 0; i < 56; ++i)
        resident += c.probe(i * 8 * 64);
    EXPECT_GT(resident, 20u);
}

TEST(CacheModel, ResidentLinesInWalkOrderReproduceTheWalk)
{
    // The lemma VmSim::prewarm rests on.  A fresh cache filled by a
    // walk of distinct lines, and one filled with only the lines that
    // walk leaves resident (the last `ways` per set) in walk order,
    // then answer every access and invalidate alike: which way holds
    // a line and the absolute LRU stamps are never read.
    struct Geometry
    {
        std::uint32_t sizeBytes, associativity;
    };
    // The last geometry has 6 sets, not a power of two.
    for (const Geometry g : {Geometry{1024, 1}, Geometry{1024, 2},
                             Geometry{2048, 4}, Geometry{4096, 8},
                             Geometry{6 * 4 * 64, 4}}) {
        const CacheConfig cfg{g.sizeBytes, 64, g.associativity, 3};
        CacheModel full(cfg), resident(cfg);
        const Addr capacity = g.sizeBytes / 64;
        Rng rng(g.sizeBytes * 31 + g.associativity);

        // Four capacities' worth of distinct lines, shuffled, some
        // written so dirty bits must carry over too.
        std::vector<Addr> walk(4 * capacity);
        for (Addr i = 0; i < walk.size(); ++i)
            walk[i] = i * 64;
        for (std::size_t i = walk.size(); i-- > 1;)
            std::swap(walk[i], walk[rng.nextBounded(i + 1)]);
        auto written = [](Addr a) { return (a / 64) % 3 == 0; };
        for (const Addr a : walk)
            full.access(a, written(a));

        std::vector<std::uint32_t> held(full.numSets(), 0);
        std::vector<Addr> kept;
        for (std::size_t i = walk.size(); i-- > 0;) {
            if (held[full.setOf(walk[i])]++ < g.associativity)
                kept.push_back(walk[i]);
        }
        ASSERT_LE(kept.size(), capacity);
        for (std::size_t i = kept.size(); i-- > 0;)
            resident.access(kept[i], written(kept[i]));

        for (int op = 0; op < 20000; ++op) {
            const Addr a = rng.nextBounded(6 * capacity) * 64;
            const std::uint64_t kind = rng.nextBounded(8);
            if (kind == 0) {
                ASSERT_EQ(full.invalidate(a), resident.invalidate(a))
                    << "op " << op << " assoc " << g.associativity;
                continue;
            }
            const bool write = kind <= 3;
            const AccessResult x = full.access(a, write);
            const AccessResult y = resident.access(a, write);
            ASSERT_EQ(x.hit, y.hit)
                << "op " << op << " assoc " << g.associativity;
            ASSERT_EQ(x.writebackVictim, y.writebackVictim)
                << "op " << op << " assoc " << g.associativity;
            ASSERT_EQ(x.victimLine, y.victimLine)
                << "op " << op << " assoc " << g.associativity;
        }
    }
}

TEST(CacheModel, RejectsDegenerateGeometry)
{
    EXPECT_DEATH(CacheModel(CacheConfig{0, 64, 2, 1}), "");
    EXPECT_DEATH(CacheModel(CacheConfig{64, 0, 2, 1}), "");
    EXPECT_DEATH(CacheModel(CacheConfig{64, 64, 2, 1}), "");
}

namespace {

L2System
makeL2(unsigned banks, unsigned vcores = 1, unsigned slices = 2)
{
    SimConfig cfg;
    cfg.numSlices = slices;
    cfg.numL2Banks = banks;
    std::vector<FabricPlacement> placements;
    for (unsigned v = 0; v < vcores; ++v)
        placements.emplace_back(slices, banks,
                                Coord{static_cast<int>(v) * 8, 0});
    return L2System(cfg, std::move(placements));
}

} // namespace

TEST(L2System, BankInterleaveByLine)
{
    L2System l2 = makeL2(4);
    EXPECT_EQ(l2.numBanks(), 4u);
    EXPECT_EQ(l2.bankFor(0x0), 0);
    EXPECT_EQ(l2.bankFor(0x40), 1);
    EXPECT_EQ(l2.bankFor(0x80), 2);
    EXPECT_EQ(l2.bankFor(0xC0), 3);
    EXPECT_EQ(l2.bankFor(0x100), 0);
    // Same line, any offset: same bank.
    EXPECT_EQ(l2.bankFor(0x47), 1);
}

TEST(L2System, MissGoesToMemoryThenHits)
{
    L2System l2 = makeL2(2);
    const L2AccessResult miss = l2.access(0, 0, 0x1000, false, 10);
    EXPECT_FALSE(miss.l2Hit);
    EXPECT_TRUE(miss.wentToMemory);
    EXPECT_GE(miss.doneCycle, 10u + 100u);
    const L2AccessResult hit = l2.access(0, 0, 0x1000, false, 500);
    EXPECT_TRUE(hit.l2Hit);
    EXPECT_LT(hit.doneCycle, 500u + 30u);
}

TEST(L2System, HitLatencyGrowsWithDistance)
{
    // Table 3: hit delay = distance*2 + 4.
    L2System l2 = makeL2(8);
    l2.access(0, 0, 0x0, false, 0); // fill bank 0 (row 1)
    l2.access(0, 0, 0x100, false, 0); // fill bank 4 (row 2)
    const Cycles near = l2.access(0, 0, 0x0, false, 1000).doneCycle;
    const Cycles far = l2.access(0, 0, 0x100, false, 1000).doneCycle;
    EXPECT_GT(far, near);
}

TEST(L2System, NoBanksMeansMemoryLatency)
{
    L2System l2 = makeL2(0);
    const L2AccessResult r = l2.access(0, 0, 0x1000, false, 0);
    EXPECT_TRUE(r.wentToMemory);
    EXPECT_GE(r.doneCycle, 100u);
    EXPECT_FALSE(l2.probeHit(0x1000));
}

TEST(L2System, PrefillAndProbe)
{
    L2System l2 = makeL2(2);
    EXPECT_FALSE(l2.probeHit(0x4000));
    l2.prefill(0, 0x4000);
    EXPECT_TRUE(l2.probeHit(0x4000));
    EXPECT_EQ(l2.accesses(), 0u); // prefill is stats-free
    const L2AccessResult r = l2.access(0, 0, 0x4000, false, 0);
    EXPECT_TRUE(r.l2Hit);
}

TEST(L2System, DirectoryInvalidatesRemoteL1s)
{
    L2System l2 = makeL2(2, /*vcores=*/2);
    CacheModel l1a(CacheConfig{16 * 1024, 64, 2, 3});
    CacheModel l1b(CacheConfig{16 * 1024, 64, 2, 3});
    l2.registerL1s(0, {&l1a});
    l2.registerL1s(1, {&l1b});

    // VCore 0 reads a line into its L1; VCore 1 writes the same line.
    l1a.access(0x8000, false);
    l2.access(0, 0, 0x8000, false, 0);
    const L2AccessResult w = l2.access(1, 0, 0x8000, true, 50);
    EXPECT_EQ(w.invalidations, 1u);
    EXPECT_FALSE(l1a.probe(0x8000));
    EXPECT_EQ(l2.invalidations(), 1u);
}

TEST(L2System, NoCoherenceTrafficWithinOneVCore)
{
    L2System l2 = makeL2(2, /*vcores=*/1);
    CacheModel l1(CacheConfig{16 * 1024, 64, 2, 3});
    l2.registerL1s(0, {&l1});
    l1.access(0x8000, false);
    l2.access(0, 0, 0x8000, false, 0);
    const L2AccessResult w = l2.access(0, 0, 0x8000, true, 10);
    EXPECT_EQ(w.invalidations, 0u);
    EXPECT_TRUE(l1.probe(0x8000));
}

TEST(L2System, FlushBankForReconfiguration)
{
    // Section 3.8: reallocating a bank flushes its dirty state.
    L2System l2 = makeL2(2);
    l2.access(0, 0, 0x0, true, 0);   // bank 0, dirty
    l2.access(0, 0, 0x40, false, 0); // bank 1, clean
    EXPECT_EQ(l2.flushBank(0), 1u);
    EXPECT_EQ(l2.flushBank(1), 0u);
    EXPECT_FALSE(l2.probeHit(0x0));
}

TEST(L2System, FlushAllClearsEverything)
{
    L2System l2 = makeL2(4, 2);
    l2.access(0, 0, 0x0, true, 0);
    l2.access(1, 0, 0x40, true, 0);
    EXPECT_EQ(l2.flushAll(), 2u);
    EXPECT_FALSE(l2.probeHit(0x0));
    EXPECT_FALSE(l2.probeHit(0x40));
}

TEST(L2System, BankPortSerializesSameCycleAccesses)
{
    L2System l2 = makeL2(1);
    l2.access(0, 0, 0x0, false, 0);
    // Warm so both are hits, then collide on the single bank.
    l2.access(0, 0, 0x1000, false, 0);
    const Cycles a = l2.access(0, 0, 0x0, false, 100).doneCycle;
    const Cycles b = l2.access(0, 0, 0x0, false, 100).doneCycle;
    EXPECT_EQ(b, a + 1);
}

/** Property: every (size, assoc) geometry behaves like a cache. */
class CacheGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t>>
{
};

TEST_P(CacheGeometry, HitRateIncreasesWithReuse)
{
    const auto [kb, assoc] = GetParam();
    CacheModel c(CacheConfig{kb * 1024, 64, assoc, 3});
    Rng rng(5);
    // Working set half the cache: second pass must mostly hit.
    const std::uint64_t lines = kb * 1024 / 64 / 2;
    Count misses_first = 0, misses_second = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t i = 0; i < lines; ++i) {
            const bool hit = c.access(i * 64, false).hit;
            (pass == 0 ? misses_first : misses_second) += !hit;
        }
    }
    EXPECT_EQ(misses_first, lines);
    // Hashed indexing admits birthday collisions, worst when
    // direct-mapped; reuse must still dominate.
    EXPECT_LT(misses_second,
              (assoc == 1 ? lines / 2 : lines / 4) + 2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(4u, 16u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));
