/**
 * @file
 * The configurable, banked L2 of the Sharing Architecture.
 *
 * Any 64 KB L2 Cache Bank can serve any VCore; a VM attaches a set of
 * banks, addresses are low-order interleaved by cache line across the
 * banks, and the hit latency grows with the mesh distance between the
 * missing Slice and the bank: distance*2 + 4 (Table 3).  For VMs with
 * several VCores the coherence point sits between the L1s and the
 * shared L2: a directory in the L2 tracks which VCores hold each line
 * and invalidates remote L1 copies on writes (section 3.5).
 *
 * Reallocating a bank to a different VM requires flushing its dirty
 * state to memory (section 3.8); flushBank/flushAll support that and
 * the reconfiguration experiments charge the 10,000-cycle penalty.
 */

#ifndef SHARCH_CACHE_L2_SYSTEM_HH
#define SHARCH_CACHE_L2_SYSTEM_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache_model.hh"
#include "common/logging.hh"
#include "common/scheduling.hh"
#include "common/types.hh"
#include "config/sim_config.hh"
#include "noc/placement.hh"
#include "stats/stats.hh"

namespace sharch {

/** Timing and coherence outcome of one L2 access. */
struct L2AccessResult
{
    Cycles doneCycle = 0;   //!< data available at the requesting Slice
    bool l2Hit = false;
    bool wentToMemory = false;
    unsigned invalidations = 0; //!< remote L1 lines invalidated
};

/**
 * A VM's shared L2: banks + directory.
 *
 * The owner registers each VCore's per-Slice L1 D-caches so that
 * directory-driven invalidations actually remove remote copies.
 */
class L2System
{
  public:
    /**
     * @param cfg        bank geometry, latencies
     * @param placement  per-VCore placements (index = VCore id); used
     *                   for Slice-to-bank distances
     */
    L2System(const SimConfig &cfg,
             std::vector<FabricPlacement> placements);

    /** Register one VCore's L1Ds (one per Slice) for invalidations. */
    void registerL1s(VCoreId vc, std::vector<CacheModel *> l1ds);

    /** Number of banks attached to this VM. */
    unsigned numBanks() const
    { return static_cast<unsigned>(banks_.size()); }

    /** The bank serving @p addr (low-order line interleave). */
    BankId
    bankFor(Addr addr) const
    {
        // Hot loop: one bank sort per L1 miss and store drain.  Block
        // sizes and the common bank counts are powers of two, so the
        // divide/modulo collapse to shifts and masks.
        SHARCH_DCHECK(!banks_.empty(), "no banks attached");
        const Addr line = lineOf(addr);
        return static_cast<BankId>(
            banksPow2_ ? line & bankMask_ : line % banks_.size());
    }

    /**
     * Handle an L1 miss from Slice @p slice of VCore @p vc at time
     * @p now.  Performs the L2 lookup (with bank-port contention), a
     * memory access on L2 miss, and any directory invalidations.
     */
    L2AccessResult access(VCoreId vc, SliceId slice, Addr addr,
                          bool is_write, Cycles now);

    /**
     * The functional twin of access(), run by the same body: exactly
     * the same architectural mutations -- directory sharers,
     * remote-L1 invalidations on writes, bank tag fill/eviction,
     * access and miss counters -- but no port scheduling and no
     * latency math.
     * Every mutation access() makes is independent of its @p now
     * argument, so a fast-forward built on this call leaves the L2 in
     * the identical tag/directory state a detailed walk would
     * (asserted by the warm-state differential tests).
     *
     * The returned result carries the architectural outcome (hit,
     * wentToMemory, invalidations) with doneCycle = 0; the sampling
     * controller counts these to know exact whole-stream miss totals.
     */
    L2AccessResult accessFunctional(VCoreId vc, Addr addr,
                                    bool is_write);

    /**
     * Install @p addr's line functionally (no timing, no statistics)
     * and mark @p vc a sharer: one line of the per-line prewarm walk.
     * VmSim::prewarm installs only the lines that walk leaves
     * resident; this stays as the reference its tests replay.
     */
    void prefill(VCoreId vc, Addr addr);

    /** Pointers to the banks, index = BankId (VmSim::prewarm fills
     *  them directly). */
    std::vector<CacheModel *> bankPointers();

    /**
     * Record VCore @p vc as a sharer of @p addr's line without
     * touching a bank: the prewarm seeds the directory with the lines
     * each VCore's L1Ds hold.  A no-op with one VCore or no banks,
     * exactly where prefill() records no sharer either.
     */
    void seedSharer(VCoreId vc, Addr addr);

    /** True until the first bank access, memory access or directory
     *  entry: the state VmSim::prewarm starts from. */
    bool untouched() const;

    /**
     * Digest of bank tag state plus the coherence directory (sorted
     * by line so unordered_map iteration order cannot leak in).
     */
    std::uint64_t stateDigest() const;

    /** Tag peek: would @p addr hit right now?  False with no banks. */
    bool probeHit(Addr addr) const;

    /** Flush one bank; @return dirty lines written back. */
    std::size_t flushBank(BankId bank);

    /** Flush all banks and the directory. */
    std::size_t flushAll();

    Count accesses() const { return accesses_; }
    Count misses() const { return misses_; }
    Count invalidations() const { return invalidations_; }
    Count memoryAccesses() const { return memoryAccesses_; }

  private:
    SimConfig cfg_;
    std::vector<FabricPlacement> placements_;
    std::vector<CacheModel> banks_;
    std::vector<SlottedPort> bankPort_; //!< 1 access/cycle per bank
    std::uint32_t blockShift_ = 0;  //!< log2(blockBytes) when pow2
    bool blockPow2_ = false;
    Addr bankMask_ = 0;             //!< banks-1 when pow2
    bool banksPow2_ = false;

    /** The 64 B-line index of @p addr. */
    Addr
    lineOf(Addr addr) const
    {
        return blockPow2_ ? addr >> blockShift_
                          : addr / cfg_.l2Bank.blockBytes;
    }
    /** line address -> bitmask of VCores caching it in an L1. */
    std::unordered_map<Addr, std::uint32_t> directory_;
    std::vector<std::vector<CacheModel *>> l1ds_; //!< [vcore][slice]

    Count accesses_ = 0;
    Count misses_ = 0;
    Count invalidations_ = 0;
    Count memoryAccesses_ = 0;

    unsigned hopsTo(VCoreId vc, SliceId slice, BankId bank) const;

    /** The one body of access() (Timed) and accessFunctional():
     *  the untimed instance compiles out ports and latency. */
    template <bool Timed>
    L2AccessResult accessImpl(VCoreId vc, SliceId slice, Addr addr,
                              bool is_write, Cycles now);
};

} // namespace sharch

#endif // SHARCH_CACHE_L2_SYSTEM_HH
