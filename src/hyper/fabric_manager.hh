/**
 * @file
 * The hypervisor's view of the fabric (sections 3.8 and 4).
 *
 * A Sharing Architecture chip is a sea of Slice tiles and L2 bank
 * tiles.  The hypervisor composes VCores by claiming a *contiguous*
 * run of Slices (operand latency demands adjacency) plus any set of
 * banks (banks need not be contiguous), and tears them down again;
 * because all Slices are interchangeable, fragmentation is repaired by
 * rescheduling Slices (section 3: "fixing fragmentation problems is as
 * simple as rescheduling Slices to VCores").
 *
 * FabricManager implements exactly that: allocation, release,
 * in-place reshaping, utilization/fragmentation metrics, and a
 * defragmentation planner whose moves carry the section 3.8 costs
 * (Register Flush per moved Slice run, L2 flush per moved bank).
 */

#ifndef SHARCH_HYPER_FABRIC_MANAGER_HH
#define SHARCH_HYPER_FABRIC_MANAGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/reconfig.hh"
#include "fault/fault_model.hh"
#include "noc/mesh.hh"

namespace sharch {

/** Identifier of one VCore allocation on the chip. */
using AllocationId = std::uint64_t;

/** A contiguous run of Slice tiles in one row. */
struct SliceRun
{
    int row = 0;
    int col = 0;       //!< first column of the run
    unsigned count = 0;

    bool contains(int r, int c) const
    {
        return r == row && c >= col &&
               c < col + static_cast<int>(count);
    }
};

/** One live VCore: its Slices and its banks. */
struct FabricAllocation
{
    AllocationId id = 0;
    SliceRun slices;
    std::vector<Coord> banks;

    VCoreShape shape() const
    {
        return VCoreShape{static_cast<unsigned>(banks.size()),
                          slices.count};
    }
};

/** One step of a defragmentation plan. */
struct DefragMove
{
    AllocationId id = 0;
    SliceRun from;
    SliceRun to;
    Cycles cost = 0; //!< Register Flush + migration cost
};

/** What the degradation policy did to one VCore after a fault. */
enum class DegradeKind
{
    Replaced,     //!< whole run moved to a healthy contiguous run
    Shrunk,       //!< fewer Slices via dynamic reconfiguration
    Evicted,      //!< no healthy run fits even one Slice
    BankReplaced, //!< lost bank substituted by a healthy free bank
    BankLost,     //!< lost bank, no free replacement: smaller L2
};

const char *degradeKindName(DegradeKind kind);

/**
 * Everything needed to rebuild a FabricManager exactly: geometry,
 * the id counter, every live allocation, and the fault sets.  The
 * owner grids are derived state (reconstructed by re-claiming each
 * allocation), so they are not stored.  AllocationEngine embeds
 * this in its sharch-state-v1 checkpoint document.
 */
struct FabricSnapshot
{
    int width = 0;
    int height = 0;
    AllocationId next = 1;
    std::vector<FabricAllocation> allocations; //!< ascending id
    std::vector<Coord> faultySliceTiles;       //!< chip coordinates
    std::vector<Coord> faultyBankTiles;
    std::vector<Coord> faultyLinkTiles;        //!< left endpoint
};

/** One VCore's graceful-degradation outcome. */
struct DegradeAction
{
    AllocationId id = 0;
    DegradeKind kind = DegradeKind::Replaced;
    SliceRun from;            //!< Slice run before the fault
    SliceRun to;              //!< run after (count 0 when evicted)
    unsigned slicesLost = 0;
    unsigned banksLost = 0;
    Cycles cost = 0;          //!< reconfiguration cycles charged
};

/**
 * Allocator for a chip of interleaved Slice and bank rows.
 *
 * Even rows hold Slices, odd rows hold 64 KB banks (the paper's
 * Figure 3 checkerboard).  A chip of width W and height H therefore
 * offers W*ceil(H/2) Slices and W*floor(H/2) banks.
 */
class FabricManager
{
  public:
    /** @param width tiles per row; @param height rows (>= 2). */
    FabricManager(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }
    unsigned totalSlices() const;
    unsigned totalBanks() const;
    unsigned freeSlices() const;
    unsigned freeBanks() const;

    /**
     * Allocate a VCore of @p slices contiguous Slices (first fit over
     * Slice rows) and @p banks banks (nearest free banks to the run).
     * @return nullopt when the request cannot be placed.
     */
    std::optional<AllocationId> allocate(unsigned slices,
                                         unsigned banks);

    /** Release an allocation; banks to be reused must be flushed. */
    bool release(AllocationId id);

    /** The allocation, or nullptr. */
    const FabricAllocation *find(AllocationId id) const;

    /** All live allocations. */
    std::vector<FabricAllocation> allocations() const;

    /**
     * Reshape in place: grow/shrink the Slice run at its current
     * position (growing requires free neighbours) and adjust banks.
     * @return the reconfiguration cost on success, nullopt on failure
     *         (the caller may then defragment or reallocate).  A
     *         failed reshape leaves the allocation as it was.
     */
    std::optional<Cycles> reshape(AllocationId id, unsigned slices,
                                  unsigned banks);

    /** Fraction of Slices in use. */
    double sliceUtilization() const;
    /** Fraction of banks in use. */
    double bankUtilization() const;

    /**
     * External fragmentation of the Slice fabric: 1 minus the largest
     * allocatable run over total free Slices (0 when any free Slice is
     * reachable in one run, 1 when nothing is free).
     */
    double fragmentation() const;

    /** Largest currently allocatable contiguous Slice run. */
    unsigned largestFreeRun() const;

    /**
     * Plan a compaction that slides every Slice run as far left/up as
     * possible (skipping faulty tiles and broken links).  Each moved
     * VCore pays the Slice-only reconfiguration cost (Register
     * Flush); bank assignments are untouched.  The plan is applied
     * immediately.
     */
    std::vector<DefragMove> defragment();

    // --- Fault handling (graceful degradation) -------------------

    /**
     * Mark one tile (or link) faulty.  The tile is excluded from all
     * future allocation, and any live VCore standing on it degrades
     * immediately:
     *
     *  - A Slice failure (or a broken link under the run) first tries
     *    to *re-place* the whole run on a contiguous healthy run,
     *    ranked by mean distance to the VCore's banks (the
     *    noc/placement cost).  If no run of the same length fits, the
     *    VCore is *shrunk* to the longest healthy run available (the
     *    paper's dynamic reconfiguration, driven by a fault instead
     *    of the autotuner).  If not even one Slice fits, the VCore is
     *    evicted and its resources freed.
     *  - A bank failure substitutes the nearest healthy free bank,
     *    or simply shrinks the VCore's L2 when none is free.  Either
     *    way the VCore pays the L2-flush reconfiguration cost.
     *
     * @return the degradation actions taken (empty when the tile was
     *         unowned).  Marking an already-faulty tile is a no-op.
     */
    std::vector<DegradeAction> markFaulty(fault::FaultKind kind,
                                          Coord tile);

    /**
     * Return a tile (or link) to service.  Live allocations are not
     * reshaped; the tile simply becomes allocatable again.
     * @return false when the tile was not faulty.
     */
    bool heal(fault::FaultKind kind, Coord tile);

    /** Route one schedule event to markFaulty()/heal(). */
    std::vector<DegradeAction> apply(const fault::FaultEvent &event);

    bool isFaulty(fault::FaultKind kind, Coord tile) const;
    unsigned faultySlices() const;
    unsigned faultyBanks() const;

    // --- Checkpoint/restore --------------------------------------

    /** Capture the full allocator state (allocations in id order). */
    FabricSnapshot snapshot() const;

    /**
     * Replace this manager's state wholesale with @p snap (geometry
     * included).  Every claim is validated -- runs on Slice rows and
     * in range, banks on bank rows, no overlaps, ids unique and
     * below the id counter -- so a tampered checkpoint is rejected
     * instead of corrupting the occupancy grid.
     * @return false (state unchanged) with @p error naming the first
     *         bad record.
     */
    bool restore(const FabricSnapshot &snap, std::string *error);

    /**
     * Deep self-check of the occupancy invariants the allocator
     * maintains: every cell the owner grids claim belongs to exactly
     * one live allocation (and vice versa), no allocation stands on
     * a faulty tile, no Slice run spans a broken link, and every id
     * is below the id counter.  Used by AllocationEngine::
     * checkInvariants() before a recovered engine accepts traffic.
     * @return false with @p error naming the first violation.
     */
    bool checkConsistency(std::string *error) const;

  private:
    int width_;
    int height_;
    ReconfigManager reconfig_;
    std::map<AllocationId, FabricAllocation> live_;
    std::vector<std::vector<AllocationId>> sliceOwner_; //!< [row][col]
    std::vector<std::vector<AllocationId>> bankOwner_;
    std::vector<std::vector<bool>> sliceBad_;  //!< [row][col]
    std::vector<std::vector<bool>> bankBad_;
    std::vector<std::vector<bool>> linkBad_;   //!< [row][col..col+1]
    AllocationId next_ = 1;

    static constexpr AllocationId kFree = 0;

    bool isSliceRow(int row) const { return row % 2 == 0; }
    int sliceRowIndex(int row) const { return row / 2; }
    int bankRowIndex(int row) const { return (row - 1) / 2; }

    bool sliceUsable(int r, int c) const
    {
        return sliceOwner_[r][c] == kFree && !sliceBad_[r][c];
    }
    /** Link between (c-1, c) of slice-row index r intact? */
    bool linkIntact(int r, int c) const { return !linkBad_[r][c - 1]; }

    std::optional<SliceRun> findRun(unsigned count) const;
    std::optional<SliceRun> bestRunFor(unsigned count,
                                       const std::vector<Coord> &banks)
        const;
    std::vector<Coord> takeBanks(unsigned count, const SliceRun &near,
                                 AllocationId id);
    void claim(const SliceRun &run, AllocationId id);
    void unclaim(const SliceRun &run);
    DegradeAction degrade(AllocationId id);
};

} // namespace sharch

#endif // SHARCH_HYPER_FABRIC_MANAGER_HH
