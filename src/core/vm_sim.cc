#include "core/vm_sim.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "trace/address_map.hh"

namespace sharch {

namespace {

/**
 * One region of the prewarm walk: `lines` 64 B lines from `base`,
 * visited top line first so the most popular (lowest) lines come
 * last and LRU ranks them most recent.
 */
struct Region
{
    Addr base = 0;
    std::uint64_t lines = 0;
};

/** True when no block of 2^@p shift bytes holds lines of two regions
 *  of @p walk. */
bool
blocksDisjoint(std::vector<Region> walk, unsigned shift)
{
    std::sort(walk.begin(), walk.end(),
              [](const Region &a, const Region &b) {
                  return a.base < b.base;
              });
    Addr next_free = 0; // first block above every region seen so far
    for (const Region &r : walk) {
        if (r.lines == 0)
            continue;
        if ((r.base >> shift) < next_free)
            return false;
        next_free =
            ((r.base + r.lines * addrmap::kLine - 1) >> shift) + 1;
    }
    return true;
}

/**
 * Fill @p caches with the lines @p walk leaves resident; append them
 * to @p resident when it is given.  The caches share one geometry and
 * are interleaved by block, block B living in cache B mod
 * caches.size() (VCoreSim::homeSliceOf, L2System::bankFor).
 *
 * A fresh true-LRU set ends up holding the last `ways` distinct lines
 * the walk maps to it, ranked by their last visit.  So each cache's
 * share of the walk is scanned backwards, every set keeping the first
 * `ways` blocks it meets (the scan stops once every set is full), and
 * only the kept blocks are installed, forwards, through
 * CacheModel::access.  A block's walked addresses are adjacent in one
 * region (blocksDisjoint), so they count as one visit.  Caches hold
 * no state in common, so filling them one after another leaves each
 * exactly as the interleaved walk would.
 */
void
fillResident(const std::vector<CacheModel *> &caches,
             const std::vector<Region> &walk,
             std::vector<Addr> *resident = nullptr)
{
    const Addr n = caches.size();
    const unsigned block_shift =
        floorLog2(caches.front()->blockBytes());
    // The walk advances by one block or one 64 B line, whichever is
    // larger: below 64 B only every 2^gap-th block is walked, and the
    // walked blocks of one cache recur every `step` units.
    const unsigned gap =
        std::max(block_shift, floorLog2(addrmap::kLine)) - block_shift;
    const unsigned unit_shift = block_shift + gap;
    const Addr step = n / std::gcd(n, Addr{1} << gap);
    const std::uint32_t ways = caches.front()->associativity();
    std::vector<std::uint32_t> held;
    std::vector<Addr> kept;
    for (Addr c = 0; c < n; c += n / step) { // the others get no block
        CacheModel &cache = *caches[c];
        held.assign(cache.numSets(), 0);
        std::size_t open = held.size(); // sets with a way still free
        kept.clear();
        for (auto r = walk.rbegin(); r != walk.rend() && open > 0; ++r) {
            if (r->lines == 0)
                continue;
            const Addr last =
                (r->base + r->lines * addrmap::kLine - 1) >> unit_shift;
            Addr u = r->base >> unit_shift;
            if (gap == 0)
                u += (c + n - u % n) % n;
            while ((u << gap) % n != c) // blocks under 64 B only
                ++u;
            for (; u <= last && open > 0; u += step) {
                const Addr addr = std::max(r->base, u << unit_shift);
                std::uint32_t &k = held[cache.setOf(addr)];
                if (k == ways)
                    continue;
                kept.push_back(addr);
                if (++k == ways)
                    --open;
            }
        }
        for (auto a = kept.rbegin(); a != kept.rend(); ++a)
            cache.access(*a, false);
        if (resident)
            resident->insert(resident->end(), kept.begin(), kept.end());
    }
}

} // namespace

double
VmResult::throughput()
const
{
    return safeDiv(static_cast<double>(aggregate.instructionsCommitted),
                   static_cast<double>(cycles));
}

VmSim::VmSim(const SimConfig &cfg, unsigned num_vcores) : cfg_(cfg)
{
    SHARCH_ASSERT(num_vcores >= 1, "a VM needs at least one VCore");
    SHARCH_ASSERT(num_vcores <= 32, "directory bitmask limit");

    // The VM's shared L2 aggregates every VCore's bank allotment.
    SimConfig vm_cfg = cfg_;
    vm_cfg.numL2Banks = cfg_.numL2Banks * num_vcores;

    // Each VCore occupies its own column range of the fabric; banks
    // are modelled at each VCore's local distances (see DESIGN.md).
    const int stride =
        static_cast<int>(std::max<unsigned>(cfg_.numSlices,
                                            FabricPlacement::kBanksPerRow))
        + 1;
    placements_.reserve(num_vcores);
    for (unsigned v = 0; v < num_vcores; ++v) {
        placements_.emplace_back(cfg_.numSlices, vm_cfg.numL2Banks,
                                 Coord{static_cast<int>(v) * stride, 0});
    }

    l2_ = std::make_unique<L2System>(vm_cfg, placements_);
    for (unsigned v = 0; v < num_vcores; ++v) {
        vcores_.push_back(std::make_unique<VCoreSim>(
            cfg_, static_cast<VCoreId>(v), placements_[v], *l2_));
        l2_->registerL1s(static_cast<VCoreId>(v),
                         vcores_.back()->l1dPointers());
    }
}

void
VmSim::prewarm(const BenchmarkProfile &profile)
{
    using namespace addrmap;
    bool fresh = l2_->untouched();
    for (const auto &vc : vcores_) {
        for (const CacheModel *l1 : vc->l1dPointers())
            fresh = fresh && l1->accesses() == 0;
    }
    SHARCH_ASSERT(fresh, "prewarm needs a fresh VmSim");

    const std::uint64_t l2_lines =
        std::uint64_t(cfg_.numL2Banks) * vcores_.size() *
        cfg_.l2Bank.sizeBytes / kLine;
    const std::uint64_t l1_lines =
        std::uint64_t(cfg_.numSlices) * cfg_.l1d.sizeBytes / kLine;
    const std::uint64_t cap = 2 * l2_lines + 4 * l1_lines;
    auto region = [cap](Addr base, std::uint64_t region_lines) {
        return Region{base, std::min(region_lines, cap)};
    };
    const bool shared =
        profile.multithreaded && profile.sharedFrac > 0.0;
    const Region shared_region =
        region(kSharedBase, profile.sharedBytes / kLine);

    // Each VCore's L1Ds see its own walk: heap, shared, hot.  The L2
    // sees every VCore's walk in turn; all of them cover the same
    // shared region, so its lines take their recency from the last
    // VCore's visit and the L2's walk is heap_0, hot_0, ...,
    // heap_{V-1}, shared, hot_{V-1}.
    std::vector<std::vector<Region>> l1_walks(vcores_.size());
    std::vector<Region> l2_walk;
    for (std::size_t v = 0; v < vcores_.size(); ++v) {
        const auto tid = static_cast<unsigned>(v);
        const Region heap = region(threadBase(kHeapBase, tid),
                                   profile.workingSetBytes / kLine);
        const Region hot =
            region(threadBase(kHotBase, tid),
                   std::max<std::uint64_t>(1, profile.hotBytes / kLine));
        l1_walks[v].push_back(heap);
        l2_walk.push_back(heap);
        if (shared) {
            l1_walks[v].push_back(shared_region);
            if (v + 1 == vcores_.size())
                l2_walk.push_back(shared_region);
        }
        l1_walks[v].push_back(hot);
        l2_walk.push_back(hot);
    }
    SHARCH_ASSERT(blocksDisjoint(l2_walk,
                                 floorLog2(std::max(cfg_.l1d.blockBytes,
                                                    cfg_.l2Bank.blockBytes))),
                  "prewarm regions share a cache block");

    std::vector<std::vector<Addr>> l1_held(vcores_.size());
    for (std::size_t v = 0; v < vcores_.size(); ++v)
        fillResident(vcores_[v]->l1dPointers(), l1_walks[v],
                     &l1_held[v]);
    // A VM with no banks gets neither bank lines nor directory
    // entries (L2System::prefill never recorded a sharer there).
    if (l2_->numBanks() == 0)
        return;
    fillResident(l2_->bankPointers(), l2_walk);

    // Directory: a sharer bit for each line a VCore's L1Ds hold.  A bit
    // for a walked line the L1Ds no longer hold could only make a
    // later write invalidate an absent line.  That stops holding when
    // an L1D block spans several L2 lines: a fill through one of them
    // brings the others back without touching their entries, so there
    // every walked line keeps its bit.
    if (vcores_.size() == 1)
        return;
    const bool block_spans_lines =
        cfg_.l1d.blockBytes > cfg_.l2Bank.blockBytes;
    for (std::size_t v = 0; v < vcores_.size(); ++v) {
        const auto vc = static_cast<VCoreId>(v);
        if (!block_spans_lines) {
            for (const Addr a : l1_held[v])
                l2_->seedSharer(vc, a);
            continue;
        }
        for (const Region &r : l1_walks[v]) {
            for (std::uint64_t i = 0; i < r.lines; ++i)
                l2_->seedSharer(vc, r.base + i * kLine);
        }
    }
}

VmResult
VmSim::run(const std::vector<std::unique_ptr<InstSource>> &sources,
           std::size_t chunk)
{
    SHARCH_ASSERT(sources.size() == vcores_.size(),
                  "one instruction source per VCore required");
    SHARCH_ASSERT(chunk > 0, "chunk must be positive");

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t v = 0; v < vcores_.size(); ++v) {
            if (vcores_[v]->step(*sources[v], chunk) > 0)
                progress = true;
        }
    }

    VmResult res;
    for (std::size_t v = 0; v < vcores_.size(); ++v) {
        const SimStats &st = vcores_[v]->stats();
        res.perVCore.push_back(st);
        res.aggregate.merge(st);
        res.cycles = std::max(res.cycles, st.cycles);
    }
    res.aggregate.cycles = res.cycles;
    return res;
}

VmResult
VmSim::run(const std::vector<Trace> &traces, std::size_t chunk)
{
    std::vector<std::unique_ptr<InstSource>> sources;
    sources.reserve(traces.size());
    for (const Trace &t : traces)
        sources.push_back(std::make_unique<MaterializedTraceSource>(t));
    return run(sources, chunk);
}

} // namespace sharch
