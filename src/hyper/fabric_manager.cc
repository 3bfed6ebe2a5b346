#include "hyper/fabric_manager.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/logging.hh"
#include "noc/placement.hh"
#include "obs/obs.hh"

namespace sharch {

#if SHARCH_OBS
namespace {

/** Registered once per process; per-thread shards keep bumps cheap. */
struct FabricMetrics
{
    obs::MetricId allocs =
        obs::MetricsRegistry::instance().addCounter("fabric.allocs");
    obs::MetricId releases =
        obs::MetricsRegistry::instance().addCounter("fabric.releases");
    obs::MetricId degrades =
        obs::MetricsRegistry::instance().addCounter("fabric.degrades");
    obs::MetricId defragMoves =
        obs::MetricsRegistry::instance().addCounter(
            "fabric.defrag_moves");
    obs::MetricId freeSlices =
        obs::MetricsRegistry::instance().addGauge(
            "fabric.free_slices");
    obs::MetricId freeBanks =
        obs::MetricsRegistry::instance().addGauge("fabric.free_banks");
};

FabricMetrics &
fabricMetrics()
{
    static FabricMetrics m;
    return m;
}

/**
 * The fabric has no clock of its own (the caller's fault schedule
 * does): trace instants tick a process-wide decision counter, which
 * keeps every hypervisor decision ordered on one timeline.
 */
std::uint64_t
nextFabricSeq()
{
    static std::atomic<std::uint64_t> seq{0};
    return seq.fetch_add(1, std::memory_order_relaxed);
}

/** One instant event on the fabric timeline. */
void
recordFabric(const char *name, std::uint64_t arg, const char *arg_name)
{
    const std::uint64_t at = nextFabricSeq();
    obs::Tracer::instance().record(
        {name, "fabric", at, at, obs::kPidFabric, 0, arg, arg_name});
}

/** Refresh the free-capacity gauges after a mutation. */
void
setFabricGauges(unsigned free_slices, unsigned free_banks)
{
    auto &reg = obs::MetricsRegistry::instance();
    const FabricMetrics &m = fabricMetrics();
    reg.set(m.freeSlices, free_slices);
    reg.set(m.freeBanks, free_banks);
}

} // namespace
#endif

const char *
degradeKindName(DegradeKind kind)
{
    switch (kind) {
      case DegradeKind::Replaced:
        return "replaced";
      case DegradeKind::Shrunk:
        return "shrunk";
      case DegradeKind::Evicted:
        return "evicted";
      case DegradeKind::BankReplaced:
        return "bank-replaced";
      case DegradeKind::BankLost:
        return "bank-lost";
    }
    return "?";
}

FabricManager::FabricManager(int width, int height)
    : width_(width), height_(height)
{
    SHARCH_ASSERT(width >= 1 && height >= 2,
                  "chip needs at least one Slice row and one bank row");
    const int slice_rows = (height + 1) / 2;
    const int bank_rows = height / 2;
    sliceOwner_.assign(slice_rows,
                       std::vector<AllocationId>(width, kFree));
    bankOwner_.assign(bank_rows,
                      std::vector<AllocationId>(width, kFree));
    sliceBad_.assign(slice_rows, std::vector<bool>(width, false));
    bankBad_.assign(bank_rows, std::vector<bool>(width, false));
    linkBad_.assign(slice_rows,
                    std::vector<bool>(width > 1 ? width - 1 : 0,
                                      false));
}

unsigned
FabricManager::totalSlices() const
{
    return static_cast<unsigned>(sliceOwner_.size()) * width_;
}

unsigned
FabricManager::totalBanks() const
{
    return static_cast<unsigned>(bankOwner_.size()) * width_;
}

unsigned
FabricManager::freeSlices() const
{
    unsigned n = 0;
    for (std::size_t r = 0; r < sliceOwner_.size(); ++r)
        for (int c = 0; c < width_; ++c)
            n += sliceUsable(static_cast<int>(r), c);
    return n;
}

unsigned
FabricManager::freeBanks() const
{
    unsigned n = 0;
    for (std::size_t r = 0; r < bankOwner_.size(); ++r)
        for (int c = 0; c < width_; ++c)
            n += bankOwner_[r][c] == kFree && !bankBad_[r][c];
    return n;
}

std::optional<SliceRun>
FabricManager::findRun(unsigned count) const
{
    if (count == 0 || count > static_cast<unsigned>(width_))
        return std::nullopt;
    for (std::size_t r = 0; r < sliceOwner_.size(); ++r) {
        unsigned run = 0;
        for (int c = 0; c < width_; ++c) {
            if (!sliceUsable(static_cast<int>(r), c))
                run = 0;
            else if (run > 0 && !linkIntact(static_cast<int>(r), c))
                run = 1; // a broken link ends the contiguous run
            else
                ++run;
            if (run >= count) {
                return SliceRun{static_cast<int>(r) * 2,
                                c - static_cast<int>(count) + 1,
                                count};
            }
        }
    }
    return std::nullopt;
}

std::optional<SliceRun>
FabricManager::bestRunFor(unsigned count,
                          const std::vector<Coord> &banks) const
{
    if (count == 0 || count > static_cast<unsigned>(width_))
        return std::nullopt;
    // Enumerate every healthy free window and keep the one with the
    // least mean Slice-to-bank distance (noc/placement's cost); ties
    // keep the first (row, col), so the choice is deterministic.
    std::optional<SliceRun> best;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < sliceOwner_.size(); ++r) {
        unsigned run = 0;
        for (int c = 0; c < width_; ++c) {
            if (!sliceUsable(static_cast<int>(r), c))
                run = 0;
            else if (run > 0 && !linkIntact(static_cast<int>(r), c))
                run = 1;
            else
                ++run;
            if (run < count)
                continue;
            const SliceRun cand{static_cast<int>(r) * 2,
                                c - static_cast<int>(count) + 1,
                                count};
            std::vector<Coord> cells;
            cells.reserve(count);
            for (unsigned i = 0; i < count; ++i) {
                cells.push_back(Coord{cand.col + static_cast<int>(i),
                                      cand.row});
            }
            const double cost = meanDistanceToBanks(cells, banks);
            if (cost < best_cost) {
                best_cost = cost;
                best = cand;
            }
        }
    }
    return best;
}

void
FabricManager::claim(const SliceRun &run, AllocationId id)
{
    auto &row = sliceOwner_[sliceRowIndex(run.row)];
    for (unsigned i = 0; i < run.count; ++i) {
        SHARCH_ASSERT(row[run.col + i] == kFree, "double allocation");
        row[run.col + i] = id;
    }
}

void
FabricManager::unclaim(const SliceRun &run)
{
    auto &row = sliceOwner_[sliceRowIndex(run.row)];
    for (unsigned i = 0; i < run.count; ++i)
        row[run.col + i] = kFree;
}

std::vector<Coord>
FabricManager::takeBanks(unsigned count, const SliceRun &near,
                         AllocationId id)
{
    // Collect free banks sorted by distance to the run's center.
    const Coord center{near.col + static_cast<int>(near.count) / 2,
                       near.row};
    std::vector<Coord> free;
    for (std::size_t r = 0; r < bankOwner_.size(); ++r) {
        for (int c = 0; c < width_; ++c) {
            if (bankOwner_[r][c] == kFree && !bankBad_[r][c])
                free.push_back(
                    Coord{c, static_cast<int>(r) * 2 + 1});
        }
    }
    std::sort(free.begin(), free.end(), [&](Coord a, Coord b) {
        const unsigned da = manhattanDistance(a, center);
        const unsigned db = manhattanDistance(b, center);
        if (da != db)
            return da < db;
        return a.y != b.y ? a.y < b.y : a.x < b.x;
    });
    SHARCH_ASSERT(free.size() >= count, "caller checked capacity");
    free.resize(count);
    for (const Coord &b : free)
        bankOwner_[bankRowIndex(b.y)][b.x] = id;
    return free;
}

std::optional<AllocationId>
FabricManager::allocate(unsigned slices, unsigned banks)
{
    if (slices == 0 || banks > freeBanks()) {
#if SHARCH_OBS
        if (obs::enabled())
            recordFabric("place_fail", slices, "slices");
#endif
        return std::nullopt;
    }
    const auto run = findRun(slices);
    if (!run) {
#if SHARCH_OBS
        if (obs::enabled())
            recordFabric("place_fail", slices, "slices");
#endif
        return std::nullopt;
    }

    const AllocationId id = next_++;
    claim(*run, id);
    FabricAllocation alloc;
    alloc.id = id;
    alloc.slices = *run;
    alloc.banks = takeBanks(banks, *run, id);
    live_.emplace(id, std::move(alloc));
#if SHARCH_OBS
    if (obs::enabled()) {
        obs::MetricsRegistry::instance().add(fabricMetrics().allocs);
        recordFabric("place", id, "vcore");
        setFabricGauges(freeSlices(), freeBanks());
    }
#endif
    return id;
}

bool
FabricManager::release(AllocationId id)
{
    auto it = live_.find(id);
    if (it == live_.end())
        return false;
    unclaim(it->second.slices);
    for (const Coord &b : it->second.banks)
        bankOwner_[bankRowIndex(b.y)][b.x] = kFree;
    live_.erase(it);
#if SHARCH_OBS
    if (obs::enabled()) {
        obs::MetricsRegistry::instance().add(fabricMetrics().releases);
        recordFabric("release", id, "vcore");
        setFabricGauges(freeSlices(), freeBanks());
    }
#endif
    return true;
}

const FabricAllocation *
FabricManager::find(AllocationId id) const
{
    auto it = live_.find(id);
    return it == live_.end() ? nullptr : &it->second;
}

std::vector<FabricAllocation>
FabricManager::allocations() const
{
    std::vector<FabricAllocation> out;
    out.reserve(live_.size());
    for (const auto &[id, alloc] : live_)
        out.push_back(alloc);
    return out;
}

std::optional<Cycles>
FabricManager::reshape(AllocationId id, unsigned slices,
                       unsigned banks)
{
    auto it = live_.find(id);
    if (it == live_.end() || slices == 0 ||
        slices > static_cast<unsigned>(width_)) {
        return std::nullopt;
    }
    FabricAllocation &alloc = it->second;
    const VCoreShape before = alloc.shape();
    // A failed reshape changes nothing, so the bank shortfall is
    // checked before the Slice run moves; a short Slice growth is
    // found before any tile changes hands.
    if (banks > alloc.banks.size() &&
        banks - alloc.banks.size() > freeBanks()) {
        return std::nullopt;
    }

    // --- Slices: shrink from the right, or grow rightwards (then
    //     leftwards) into free neighbours. ---
    SliceRun run = alloc.slices;
    auto &row = sliceOwner_[sliceRowIndex(run.row)];
    if (slices < run.count) {
        for (unsigned i = slices; i < run.count; ++i)
            row[run.col + i] = kFree;
        run.count = slices;
    } else if (slices > run.count) {
        const int r = sliceRowIndex(run.row);
        unsigned need = slices - run.count;
        unsigned grow_right = 0, grow_left = 0;
        while (grow_right < need &&
               run.col + static_cast<int>(run.count + grow_right) <
                   width_ &&
               sliceUsable(r, run.col + run.count + grow_right) &&
               linkIntact(r, run.col + run.count + grow_right)) {
            ++grow_right;
        }
        while (grow_right + grow_left < need && run.col > 0 &&
               run.col - static_cast<int>(grow_left) - 1 >= 0 &&
               sliceUsable(r, run.col - grow_left - 1) &&
               linkIntact(r, run.col - grow_left)) {
            ++grow_left;
        }
        if (grow_right + grow_left < need)
            return std::nullopt; // caller should defragment
        for (unsigned i = 0; i < grow_right; ++i)
            row[run.col + run.count + i] = id;
        for (unsigned i = 0; i < grow_left; ++i)
            row[run.col - 1 - static_cast<int>(i)] = id;
        run.col -= static_cast<int>(grow_left);
        run.count = slices;
    }
    alloc.slices = run;

    // --- Banks: release surplus (farthest first) or claim more. ---
    if (banks < alloc.banks.size()) {
        while (alloc.banks.size() > banks) {
            const Coord b = alloc.banks.back();
            alloc.banks.pop_back();
            bankOwner_[bankRowIndex(b.y)][b.x] = kFree;
        }
    } else if (banks > alloc.banks.size()) {
        const auto extra = takeBanks(
            banks - static_cast<unsigned>(alloc.banks.size()),
            alloc.slices, id);
        alloc.banks.insert(alloc.banks.end(), extra.begin(),
                           extra.end());
    }

    return reconfig_.transitionCost(before, alloc.shape());
}

double
FabricManager::sliceUtilization() const
{
    return 1.0 - static_cast<double>(freeSlices()) / totalSlices();
}

double
FabricManager::bankUtilization() const
{
    if (totalBanks() == 0)
        return 0.0;
    return 1.0 - static_cast<double>(freeBanks()) / totalBanks();
}

unsigned
FabricManager::largestFreeRun() const
{
    unsigned best = 0;
    for (std::size_t r = 0; r < sliceOwner_.size(); ++r) {
        unsigned run = 0;
        for (int c = 0; c < width_; ++c) {
            if (!sliceUsable(static_cast<int>(r), c))
                run = 0;
            else if (run > 0 && !linkIntact(static_cast<int>(r), c))
                run = 1;
            else
                ++run;
            best = std::max(best, run);
        }
    }
    return best;
}

double
FabricManager::fragmentation() const
{
    const unsigned free = freeSlices();
    if (free == 0)
        return 1.0;
    return 1.0 - static_cast<double>(largestFreeRun()) / free;
}

std::vector<DefragMove>
FabricManager::defragment()
{
    std::vector<DefragMove> moves;

    // Sort live runs by (row, col) and repack them left to right, row
    // by row -- every Slice is interchangeable, so sliding a run is
    // a Register Flush plus interconnect reprogramming (section 3.8).
    std::vector<AllocationId> order;
    for (const auto &[id, alloc] : live_)
        order.push_back(id);
    std::sort(order.begin(), order.end(), [&](AllocationId a,
                                              AllocationId b) {
        const FabricAllocation &fa = live_.at(a);
        const FabricAllocation &fb = live_.at(b);
        if (fa.slices.row != fb.slices.row)
            return fa.slices.row < fb.slices.row;
        return fa.slices.col < fb.slices.col;
    });

    // Greedy repack: each run slides to the leftmost healthy free
    // window over the rows in order.  On a fault-free chip this is
    // exactly the historical cursor-per-row compaction (every placed
    // run packs against the previous one); faulty tiles and broken
    // links simply make some windows infeasible.  A run's own cells
    // are released before the search, so staying put is always an
    // option and the claim below can never collide.
    for (AllocationId id : order) {
        FabricAllocation &alloc = live_.at(id);
        const SliceRun from = alloc.slices;
        unclaim(from);
        const auto to = findRun(from.count);
        SHARCH_ASSERT(to.has_value(),
                      "a live run must fit at its own position");
        claim(*to, id);
        alloc.slices = *to;
        if (to->row == from.row && to->col == from.col)
            continue; // already in place
        DefragMove mv;
        mv.id = id;
        mv.from = from;
        mv.to = *to;
        // Register Flush per move (Slice-only reconfiguration).
        mv.cost = reconfig_.transitionCost(
            VCoreShape{0, from.count},
            VCoreShape{0, from.count + 1});
        moves.push_back(mv);
#if SHARCH_OBS
        if (obs::enabled()) {
            obs::MetricsRegistry::instance().add(
                fabricMetrics().defragMoves);
            recordFabric("defrag_move", id, "vcore");
        }
#endif
    }
    return moves;
}

std::vector<DegradeAction>
FabricManager::markFaulty(fault::FaultKind kind, Coord tile)
{
    std::vector<DegradeAction> actions;
    switch (kind) {
      case fault::FaultKind::Slice: {
        SHARCH_ASSERT(isSliceRow(tile.y) && tile.y < height_ &&
                          tile.x >= 0 && tile.x < width_,
                      "slice fault off-chip");
        const int r = sliceRowIndex(tile.y);
        if (sliceBad_[r][tile.x])
            return actions;
        sliceBad_[r][tile.x] = true;
        const AllocationId owner = sliceOwner_[r][tile.x];
        if (owner != kFree)
            actions.push_back(degrade(owner));
        break;
      }
      case fault::FaultKind::Bank: {
        SHARCH_ASSERT(!isSliceRow(tile.y) && tile.y < height_ &&
                          tile.x >= 0 && tile.x < width_,
                      "bank fault off-chip");
        const int r = bankRowIndex(tile.y);
        if (bankBad_[r][tile.x])
            return actions;
        bankBad_[r][tile.x] = true;
        const AllocationId owner = bankOwner_[r][tile.x];
        if (owner == kFree)
            break;
        bankOwner_[r][tile.x] = kFree; // dead bank leaves the pool
        FabricAllocation &alloc = live_.at(owner);
        const VCoreShape before = alloc.shape();
        alloc.banks.erase(std::find(alloc.banks.begin(),
                                    alloc.banks.end(), tile));
        DegradeAction act;
        act.id = owner;
        act.from = act.to = alloc.slices;
        // Losing a bank changes the survivor set either way: L2
        // flush (surviving dirty state must leave the dead bank's
        // index range).
        act.cost = reconfig_.transitionCost(before, alloc.shape());
        if (freeBanks() >= 1) {
            const auto extra = takeBanks(1, alloc.slices, owner);
            alloc.banks.insert(alloc.banks.end(), extra.begin(),
                               extra.end());
            act.kind = DegradeKind::BankReplaced;
        } else {
            act.kind = DegradeKind::BankLost;
            act.banksLost = 1;
        }
        actions.push_back(act);
        break;
      }
      case fault::FaultKind::Link: {
        SHARCH_ASSERT(isSliceRow(tile.y) && tile.y < height_ &&
                          tile.x >= 0 && tile.x < width_ - 1,
                      "link fault off-chip");
        const int r = sliceRowIndex(tile.y);
        if (linkBad_[r][tile.x])
            return actions;
        linkBad_[r][tile.x] = true;
        // Contiguity is broken only for a run spanning the link.
        const AllocationId left = sliceOwner_[r][tile.x];
        if (left != kFree && left == sliceOwner_[r][tile.x + 1])
            actions.push_back(degrade(left));
        break;
      }
    }
#if SHARCH_OBS
    if (obs::enabled()) {
        recordFabric("fault", static_cast<std::uint64_t>(
                                  tile.y) * width_ + tile.x,
                     "tile");
        auto &reg = obs::MetricsRegistry::instance();
        for (const DegradeAction &a : actions) {
            reg.add(fabricMetrics().degrades);
            recordFabric(degradeKindName(a.kind), a.id, "vcore");
        }
        setFabricGauges(freeSlices(), freeBanks());
    }
#endif
    return actions;
}

DegradeAction
FabricManager::degrade(AllocationId id)
{
    FabricAllocation &alloc = live_.at(id);
    const VCoreShape before = alloc.shape();
    const SliceRun from = alloc.slices;
    DegradeAction act;
    act.id = id;
    act.from = from;

    // The current position is no longer a healthy contiguous run;
    // release it so the search may reuse its surviving cells.
    unclaim(from);

    // 1. Re-place: a healthy run of the same length, nearest to the
    //    VCore's banks.
    if (const auto to = bestRunFor(from.count, alloc.banks)) {
        claim(*to, id);
        alloc.slices = *to;
        act.kind = DegradeKind::Replaced;
        act.to = *to;
        // The move is a Slice-only reconfiguration: Register Flush.
        act.cost = reconfig_.transitionCost(
            VCoreShape{0, from.count}, VCoreShape{0, from.count + 1});
        return act;
    }

    // 2. Shrink: the paper's dynamic resizing, driven by the fault --
    //    the longest healthy run still available.
    for (unsigned k = from.count - 1; k >= 1; --k) {
        const auto to = bestRunFor(k, alloc.banks);
        if (!to)
            continue;
        claim(*to, id);
        alloc.slices = *to;
        act.kind = DegradeKind::Shrunk;
        act.to = *to;
        act.slicesLost = from.count - k;
        act.cost = reconfig_.transitionCost(before, alloc.shape());
        return act;
    }

    // 3. Evict: not even one Slice fits; the VCore's resources are
    //    freed and its state flushed (L2 flush when it held banks,
    //    Register Flush otherwise).
    for (const Coord &b : alloc.banks)
        bankOwner_[bankRowIndex(b.y)][b.x] = kFree;
    act.kind = DegradeKind::Evicted;
    act.to = SliceRun{from.row, from.col, 0};
    act.slicesLost = from.count;
    act.banksLost = static_cast<unsigned>(alloc.banks.size());
    act.cost = before.banks > 0
                   ? reconfig_.transitionCost(
                         before, VCoreShape{0, before.slices})
                   : reconfig_.transitionCost(VCoreShape{0, 2},
                                              VCoreShape{0, 1});
    live_.erase(id);
    return act;
}

bool
FabricManager::heal(fault::FaultKind kind, Coord tile)
{
    switch (kind) {
      case fault::FaultKind::Slice: {
        if (!isSliceRow(tile.y) || tile.y >= height_ || tile.x < 0 ||
            tile.x >= width_) {
            return false;
        }
        auto cell = sliceBad_[sliceRowIndex(tile.y)].begin() + tile.x;
        const bool was = *cell;
        *cell = false;
        return was;
      }
      case fault::FaultKind::Bank: {
        if (isSliceRow(tile.y) || tile.y >= height_ || tile.x < 0 ||
            tile.x >= width_) {
            return false;
        }
        auto cell = bankBad_[bankRowIndex(tile.y)].begin() + tile.x;
        const bool was = *cell;
        *cell = false;
        return was;
      }
      case fault::FaultKind::Link: {
        if (!isSliceRow(tile.y) || tile.y >= height_ || tile.x < 0 ||
            tile.x >= width_ - 1) {
            return false;
        }
        auto cell = linkBad_[sliceRowIndex(tile.y)].begin() + tile.x;
        const bool was = *cell;
        *cell = false;
        return was;
      }
    }
    return false;
}

FabricSnapshot
FabricManager::snapshot() const
{
    FabricSnapshot snap;
    snap.width = width_;
    snap.height = height_;
    snap.next = next_;
    for (const auto &[id, alloc] : live_)
        snap.allocations.push_back(alloc);
    for (std::size_t r = 0; r < sliceBad_.size(); ++r)
        for (int c = 0; c < width_; ++c)
            if (sliceBad_[r][c])
                snap.faultySliceTiles.push_back(
                    Coord{c, static_cast<int>(r) * 2});
    for (std::size_t r = 0; r < bankBad_.size(); ++r)
        for (int c = 0; c < width_; ++c)
            if (bankBad_[r][c])
                snap.faultyBankTiles.push_back(
                    Coord{c, static_cast<int>(r) * 2 + 1});
    for (std::size_t r = 0; r < linkBad_.size(); ++r)
        for (int c = 0; c + 1 < width_; ++c)
            if (linkBad_[r][c])
                snap.faultyLinkTiles.push_back(
                    Coord{c, static_cast<int>(r) * 2});
    return snap;
}

bool
FabricManager::restore(const FabricSnapshot &snap, std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    if (snap.width < 1 || snap.height < 2) {
        return fail("fabric geometry " + std::to_string(snap.width) +
                    "x" + std::to_string(snap.height) +
                    " is invalid (want width >= 1, height >= 2)");
    }

    // Build the replacement state on the side; *this is only
    // overwritten once every record has validated.
    FabricManager next(snap.width, snap.height);
    next.next_ = snap.next;

    for (const Coord &t : snap.faultySliceTiles) {
        if (!next.isSliceRow(t.y) || t.y >= snap.height || t.x < 0 ||
            t.x >= snap.width) {
            return fail("faulty Slice tile (" + std::to_string(t.x) +
                        "," + std::to_string(t.y) + ") is off-chip");
        }
        next.sliceBad_[next.sliceRowIndex(t.y)][t.x] = true;
    }
    for (const Coord &t : snap.faultyBankTiles) {
        if (next.isSliceRow(t.y) || t.y >= snap.height || t.x < 0 ||
            t.x >= snap.width) {
            return fail("faulty bank tile (" + std::to_string(t.x) +
                        "," + std::to_string(t.y) + ") is off-chip");
        }
        next.bankBad_[next.bankRowIndex(t.y)][t.x] = true;
    }
    for (const Coord &t : snap.faultyLinkTiles) {
        if (!next.isSliceRow(t.y) || t.y >= snap.height || t.x < 0 ||
            t.x >= snap.width - 1) {
            return fail("faulty link (" + std::to_string(t.x) + "," +
                        std::to_string(t.y) + ") is off-chip");
        }
        next.linkBad_[next.sliceRowIndex(t.y)][t.x] = true;
    }

    for (const FabricAllocation &alloc : snap.allocations) {
        const std::string where =
            "allocation " + std::to_string(alloc.id);
        if (alloc.id == kFree || alloc.id >= snap.next)
            return fail(where + ": id must be in 1.." +
                        std::to_string(snap.next - 1) +
                        " (below the id counter)");
        if (next.live_.count(alloc.id))
            return fail(where + ": duplicate id");
        const SliceRun &run = alloc.slices;
        if (!next.isSliceRow(run.row) || run.row >= snap.height ||
            run.col < 0 || run.count == 0 ||
            run.col + static_cast<int>(run.count) > snap.width) {
            return fail(where + ": Slice run is off-chip");
        }
        const int r = next.sliceRowIndex(run.row);
        for (unsigned i = 0; i < run.count; ++i) {
            if (next.sliceOwner_[r][run.col + i] != kFree)
                return fail(where + ": Slice (" +
                            std::to_string(run.col +
                                           static_cast<int>(i)) +
                            "," + std::to_string(run.row) +
                            ") is claimed twice");
            next.sliceOwner_[r][run.col + i] = alloc.id;
        }
        for (const Coord &b : alloc.banks) {
            if (next.isSliceRow(b.y) || b.y >= snap.height ||
                b.x < 0 || b.x >= snap.width) {
                return fail(where + ": bank (" +
                            std::to_string(b.x) + "," +
                            std::to_string(b.y) + ") is off-chip");
            }
            AllocationId &owner =
                next.bankOwner_[next.bankRowIndex(b.y)][b.x];
            if (owner != kFree)
                return fail(where + ": bank (" +
                            std::to_string(b.x) + "," +
                            std::to_string(b.y) +
                            ") is claimed twice");
            owner = alloc.id;
        }
        next.live_.emplace(alloc.id, alloc);
    }

    *this = std::move(next);
    return true;
}

std::vector<DegradeAction>
FabricManager::apply(const fault::FaultEvent &event)
{
    if (event.heal) {
        const bool healed = heal(event.kind, event.tile);
#if SHARCH_OBS
        if (healed && obs::enabled()) {
            recordFabric("heal", static_cast<std::uint64_t>(
                                     event.tile.y) * width_ +
                                     event.tile.x,
                         "tile");
            setFabricGauges(freeSlices(), freeBanks());
        }
#else
        (void)healed;
#endif
        return {};
    }
    return markFaulty(event.kind, event.tile);
}

bool
FabricManager::isFaulty(fault::FaultKind kind, Coord tile) const
{
    switch (kind) {
      case fault::FaultKind::Slice:
        return isSliceRow(tile.y) && tile.y < height_ && tile.x >= 0 &&
               tile.x < width_ &&
               sliceBad_[sliceRowIndex(tile.y)][tile.x];
      case fault::FaultKind::Bank:
        return !isSliceRow(tile.y) && tile.y < height_ &&
               tile.x >= 0 && tile.x < width_ &&
               bankBad_[bankRowIndex(tile.y)][tile.x];
      case fault::FaultKind::Link:
        return isSliceRow(tile.y) && tile.y < height_ && tile.x >= 0 &&
               tile.x < width_ - 1 &&
               linkBad_[sliceRowIndex(tile.y)][tile.x];
    }
    return false;
}

unsigned
FabricManager::faultySlices() const
{
    unsigned n = 0;
    for (const auto &row : sliceBad_)
        for (bool bad : row)
            n += bad;
    return n;
}

unsigned
FabricManager::faultyBanks() const
{
    unsigned n = 0;
    for (const auto &row : bankBad_)
        for (bool bad : row)
            n += bad;
    return n;
}

bool
FabricManager::checkConsistency(std::string *error) const
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = "fabric: " + what;
        return false;
    };
    auto cell = [](int x, int y) {
        return "(" + std::to_string(x) + "," + std::to_string(y) +
               ")";
    };

    // Rebuild the owner grids from the allocation book; any cell
    // where the rebuilt grid and the live grid disagree is a stale
    // or phantom claim.
    std::vector<std::vector<AllocationId>> slices(
        sliceOwner_.size(), std::vector<AllocationId>(width_, kFree));
    std::vector<std::vector<AllocationId>> banks(
        bankOwner_.size(), std::vector<AllocationId>(width_, kFree));
    for (const auto &[id, alloc] : live_) {
        const std::string where = "allocation " + std::to_string(id);
        if (id == kFree || id >= next_)
            return fail(where + ": id outside 1.." +
                        std::to_string(next_ - 1));
        if (id != alloc.id)
            return fail(where + ": book key != allocation id " +
                        std::to_string(alloc.id));
        const SliceRun &run = alloc.slices;
        if (!isSliceRow(run.row) || run.row >= height_ ||
            run.col < 0 || run.count == 0 ||
            run.col + static_cast<int>(run.count) > width_) {
            return fail(where + ": Slice run is off-chip");
        }
        const int r = sliceRowIndex(run.row);
        for (unsigned i = 0; i < run.count; ++i) {
            const int c = run.col + static_cast<int>(i);
            if (sliceBad_[r][c])
                return fail(where + ": owns faulty Slice " +
                            cell(c, run.row));
            if (i > 0 && !linkIntact(r, c))
                return fail(where + ": Slice run spans the broken "
                            "link at " + cell(c - 1, run.row));
            if (slices[r][c] != kFree)
                return fail(where + ": Slice " + cell(c, run.row) +
                            " also owned by allocation " +
                            std::to_string(slices[r][c]));
            slices[r][c] = id;
        }
        for (const Coord &b : alloc.banks) {
            if (isSliceRow(b.y) || b.y >= height_ || b.x < 0 ||
                b.x >= width_) {
                return fail(where + ": bank " + cell(b.x, b.y) +
                            " is off-chip");
            }
            const int br = bankRowIndex(b.y);
            if (bankBad_[br][b.x])
                return fail(where + ": owns faulty bank " +
                            cell(b.x, b.y));
            if (banks[br][b.x] != kFree)
                return fail(where + ": bank " + cell(b.x, b.y) +
                            " also owned by allocation " +
                            std::to_string(banks[br][b.x]));
            banks[br][b.x] = id;
        }
    }
    for (std::size_t r = 0; r < sliceOwner_.size(); ++r) {
        for (int c = 0; c < width_; ++c) {
            if (sliceOwner_[r][c] != slices[r][c])
                return fail("Slice grid " +
                            cell(c, static_cast<int>(r) * 2) +
                            " says owner " +
                            std::to_string(sliceOwner_[r][c]) +
                            " but the allocation book says " +
                            std::to_string(slices[r][c]));
        }
    }
    for (std::size_t r = 0; r < bankOwner_.size(); ++r) {
        for (int c = 0; c < width_; ++c) {
            if (bankOwner_[r][c] != banks[r][c])
                return fail("bank grid " +
                            cell(c, static_cast<int>(r) * 2 + 1) +
                            " says owner " +
                            std::to_string(bankOwner_[r][c]) +
                            " but the allocation book says " +
                            std::to_string(banks[r][c]));
        }
    }
    return true;
}

} // namespace sharch
