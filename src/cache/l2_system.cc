#include "cache/l2_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "obs/obs.hh"

namespace sharch {

#if SHARCH_OBS
namespace {

/** Registered once per process; per-thread shards keep bumps cheap. */
struct CacheMetrics
{
    obs::MetricId accesses =
        obs::MetricsRegistry::instance().addCounter(
            "cache.l2_accesses");
    obs::MetricId misses =
        obs::MetricsRegistry::instance().addCounter("cache.l2_misses");
    obs::MetricId invalidations =
        obs::MetricsRegistry::instance().addCounter(
            "cache.invalidations");
    obs::HistogramHandle latency =
        obs::MetricsRegistry::instance().addHistogram(
            "cache.l2_latency", 0.0, 8.0, 32);
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

} // namespace
#endif

L2System::L2System(const SimConfig &cfg,
                   std::vector<FabricPlacement> placements)
    : cfg_(cfg), placements_(std::move(placements))
{
    SHARCH_ASSERT(!placements_.empty(), "L2System needs >= 1 VCore");
    blockPow2_ = cfg_.l2Bank.blockBytes > 0 &&
                 isPow2(cfg_.l2Bank.blockBytes);
    blockShift_ = blockPow2_ ? floorLog2(cfg_.l2Bank.blockBytes) : 0;
    banksPow2_ = cfg_.numL2Banks > 0 && isPow2(cfg_.numL2Banks);
    bankMask_ = banksPow2_ ? cfg_.numL2Banks - 1 : 0;
    banks_.reserve(cfg_.numL2Banks);
    for (std::uint32_t b = 0; b < cfg_.numL2Banks; ++b) {
        banks_.emplace_back(cfg_.l2Bank);
        bankPort_.emplace_back(1);
    }
    l1ds_.resize(placements_.size());
#if SHARCH_OBS
    if (obs::enabled()) {
        for (std::uint32_t b = 0; b < cfg_.numL2Banks; ++b) {
            obs::Tracer::instance().nameTrack(
                obs::kPidCache, b, "bank" + std::to_string(b));
        }
    }
#endif
}

void
L2System::registerL1s(VCoreId vc, std::vector<CacheModel *> l1ds)
{
    SHARCH_ASSERT(vc < l1ds_.size(), "VCore id out of range");
    l1ds_[vc] = std::move(l1ds);
}

unsigned
L2System::hopsTo(VCoreId vc, SliceId slice, BankId bank) const
{
    SHARCH_DCHECK(vc < placements_.size(), "VCore id out of range");
    return placements_[vc].sliceToBankHops(slice, bank);
}

template <bool Timed>
L2AccessResult
L2System::accessImpl(VCoreId vc, SliceId slice, Addr addr,
                     bool is_write, Cycles now)
{
    L2AccessResult res;
    const bool multi_vcore = placements_.size() > 1;
    const Addr line = lineOf(addr);

    // Directory maintenance (coherence point between L1 and L2).
    if (multi_vcore) {
        std::uint32_t &sharers = directory_[line];
        if (is_write) {
            for (std::size_t other = 0; other < l1ds_.size(); ++other) {
                if (other == vc || !(sharers & (1u << other)))
                    continue;
                for (CacheModel *l1 : l1ds_[other]) {
                    if (l1 && l1->invalidate(addr)) {
                        ++res.invalidations;
                        ++invalidations_;
                    }
                }
            }
            sharers = 1u << vc;
        } else {
            sharers |= 1u << vc;
        }
    }

    if (banks_.empty()) {
        // No L2 attached: every L1 miss goes to main memory.
        ++memoryAccesses_;
        res.wentToMemory = true;
        if constexpr (Timed) {
            res.doneCycle = now + 4 + cfg_.memoryLatency;
            if (res.invalidations > 0)
                res.doneCycle += 6;
        }
        return res;
    }

    const BankId bank = bankFor(addr);
    ++accesses_;
    const AccessResult bank_res = banks_[bank].access(addr, is_write);
    if (!bank_res.hit) {
        ++misses_;
        ++memoryAccesses_;
        res.wentToMemory = true;
    }
    res.l2Hit = bank_res.hit;
    if constexpr (Timed) {
        // The bank port shares no state with the tags above, so
        // scheduling it after the access changes nothing.  One access
        // per cycle per bank, slots claimable out of order.
        const unsigned hops = hopsTo(vc, slice, bank);
        const Cycles start = bankPort_[bank].schedule(now);
        // Table 3: hit delay = distance*2 + 4.
        Cycles done = start + hops * cfg_.l2DistanceCyclesPerHop +
                      cfg_.l2Bank.hitLatency;
        if (!bank_res.hit)
            done += cfg_.memoryLatency;
        if (res.invalidations > 0)
            done += 6; // invalidation round-trip before data is usable
        res.doneCycle = done;
#if SHARCH_OBS
        if (obs::enabled()) {
            auto &reg = obs::MetricsRegistry::instance();
            const CacheMetrics &m = cacheMetrics();
            reg.add(m.accesses);
            if (!bank_res.hit)
                reg.add(m.misses);
            if (res.invalidations > 0)
                reg.add(m.invalidations, res.invalidations);
            reg.observe(m.latency, static_cast<double>(done - now));
            obs::Tracer::instance().record(
                {bank_res.hit ? "l2_hit" : "l2_miss", "cache", start,
                 done, obs::kPidCache, bank, hops, "hops"});
        }
#endif
    }
    return res;
}

L2AccessResult
L2System::access(VCoreId vc, SliceId slice, Addr addr, bool is_write,
                 Cycles now)
{
    return accessImpl<true>(vc, slice, addr, is_write, now);
}

L2AccessResult
L2System::accessFunctional(VCoreId vc, Addr addr, bool is_write)
{
    return accessImpl<false>(vc, 0, addr, is_write, 0);
}

std::uint64_t
L2System::stateDigest() const
{
    std::uint64_t h = kDigestSeed;
    for (const CacheModel &b : banks_)
        h = digestMix(h, b.stateDigest());
    // unordered_map iteration order is not deterministic across
    // containers with different insertion histories; sort by line.
    std::vector<std::pair<Addr, std::uint32_t>> dir(directory_.begin(),
                                                    directory_.end());
    std::sort(dir.begin(), dir.end());
    for (const auto &[line, sharers] : dir) {
        // Entries whose sharer mask went empty-equivalent still
        // compare: access() never erases, so both walks keep them.
        h = digestMix(h, line);
        h = digestMix(h, sharers);
    }
    return h;
}

bool
L2System::probeHit(Addr addr) const
{
    if (banks_.empty())
        return false;
    return banks_[bankFor(addr)].probe(addr);
}

void
L2System::prefill(VCoreId vc, Addr addr)
{
    if (banks_.empty())
        return;
    banks_[bankFor(addr)].access(addr, false);
    seedSharer(vc, addr);
}

std::vector<CacheModel *>
L2System::bankPointers()
{
    std::vector<CacheModel *> ptrs;
    for (auto &b : banks_)
        ptrs.push_back(&b);
    return ptrs;
}

void
L2System::seedSharer(VCoreId vc, Addr addr)
{
    if (!banks_.empty() && placements_.size() > 1)
        directory_[lineOf(addr)] |= 1u << vc;
}

bool
L2System::untouched() const
{
    return directory_.empty() && memoryAccesses_ == 0 &&
           std::all_of(banks_.begin(), banks_.end(),
                       [](const CacheModel &b) {
                           return b.accesses() == 0;
                       });
}

std::size_t
L2System::flushBank(BankId bank)
{
    SHARCH_ASSERT(bank < banks_.size(), "bank id out of range");
    return banks_[bank].flushAll();
}

std::size_t
L2System::flushAll()
{
    std::size_t dirty = 0;
    for (auto &b : banks_)
        dirty += b.flushAll();
    directory_.clear();
    return dirty;
}

} // namespace sharch
