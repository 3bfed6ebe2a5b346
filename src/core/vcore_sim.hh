/**
 * @file
 * SSim's timing model of one Virtual Core.
 *
 * A VCore is s contiguous Slices plus a set of L2 banks.  The model
 * replays a committed-path trace in program order and computes, per
 * instruction, the cycle of every pipeline event under the Sharing
 * Architecture's constraints:
 *
 *  - PC-interleaved fetch, two instructions per Slice per cycle, with
 *    a whole-group stall semantics (section 3.1);
 *  - a distributed bimodal predictor and replicated BTB; mispredicts
 *    flush across Slices with network-latency cost;
 *  - two-stage rename whose depth grows with Slice count (section
 *    3.2) and whose cross-Slice operands ride the Scalar Operand
 *    Network at 2 cycles + 1/hop (section 3.4), with remote values
 *    cached in the local LRF after first use;
 *  - per-Slice issue windows, ROB partitions, LRFs, store buffers and
 *    MSHRs modelled as in-order-allocated occupancy limits;
 *  - loads/stores sorted to the owning Slice by address (section 3.6),
 *    unordered LSQ semantics with store-load forwarding and violation
 *    squashes;
 *  - private per-Slice L1s, a shared banked L2 with distance latency,
 *    and a 100-cycle memory.
 *
 * Wrong-path work is modelled as fetch bubbles (the trace holds only
 * the committed path), the standard trace-driven methodology.
 */

#ifndef SHARCH_CORE_VCORE_SIM_HH
#define SHARCH_CORE_VCORE_SIM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cache/cache_model.hh"
#include "cache/l2_system.hh"
#include "config/sim_config.hh"
#include "noc/network.hh"
#include "noc/placement.hh"
#include "stats/stats.hh"
#include "trace/inst_source.hh"
#include "trace/instruction.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/mem_dep.hh"
#include "uarch/rename.hh"
#include "uarch/structures.hh"

namespace sharch {

/** Timing model of one VCore, driven by one thread's trace. */
class VCoreSim
{
  public:
    /**
     * @param cfg       microarchitecture parameters
     * @param vc        this VCore's id within its VM
     * @param placement coordinates of this VCore's Slices and the
     *                  VM's banks
     * @param l2        the VM's shared L2 (may have zero banks)
     */
    VCoreSim(const SimConfig &cfg, VCoreId vc,
             const FabricPlacement &placement, L2System &l2);

    /** Pointers to the per-Slice L1 D-caches (for the L2 directory). */
    std::vector<CacheModel *> l1dPointers();

    /**
     * Install one line into the owning Slice's L1D and the L2
     * functionally (no timing): one line of the per-line prewarm
     * walk, kept as the reference VmSim::prewarm's tests replay.
     */
    void prefillLine(Addr addr);

    /**
     * Process up to @p max_instructions pulled from @p src.
     *
     * Contract: instructions are consumed from @p src in order, one
     * timing walk per instruction; the return value is the number
     * actually processed, which is less than @p max_instructions only
     * when @p src ran out.  Stream progress lives in the source
     * (InstSource::consumed()), not the core: callers may resume the
     * same source on this core, or -- between step calls -- charge
     * reconfigurations.  After a step that drains @p src, done()
     * reports true until the next step() with a non-exhausted source.
     */
    std::size_t step(InstSource &src, std::size_t max_instructions);

    /**
     * Consume up to @p max_instructions from @p src *functionally*:
     * only architectural warm state advances -- L1/L2 tag contents
     * (via the same access sequence the detailed walk performs),
     * branch-predictor and BTB training, memory-dependence history,
     * and the fetch-line tracker.  No port scheduling, no occupancy,
     * no network timing, and crucially no cycle progress:
     * lastCommit_/nextFetchCycle_ stay where the last detailed window
     * left them, so timed windows resumed after a fast-forward remain
     * on one continuous clock.  stats() is untouched; the purely
     * architectural events (cache accesses/misses, branch outcomes,
     * invalidations) are tallied separately in functionalStats() so
     * the sampling controller knows *exact* whole-stream totals for
     * every timing-independent counter.
     *
     * This is the SMARTS functional-warming phase; it runs near
     * generator speed because each instruction costs a few cache tag
     * probes instead of the full timing walk.
     *
     * @return instructions consumed (< max only when @p src ran out)
     */
    std::size_t fastForward(InstSource &src,
                            std::size_t max_instructions);

    /** Run @p src to exhaustion and return the final statistics. */
    const SimStats &run(InstSource &src);

    /** True when the last step() drained its source. */
    bool done() const { return done_; }

    /** Cycle of the most recent commit (the completion frontier). */
    Cycles currentCycle() const { return lastCommit_; }

    const SimStats &stats() const { return stats_; }

    /**
     * Architectural events observed during fast-forward phases only
     * (never mixed into stats()): instructionsCommitted counts
     * fast-forwarded instructions; branches/branchMispredicts, loads/
     * stores, and the L1/L2 access/miss/invalidation counters mirror
     * the detailed walk's counting sites exactly, so
     * stats() + functionalStats() are the exact whole-stream totals
     * of every timing-independent counter.
     */
    const SimStats &functionalStats() const { return funcStats_; }

    /**
     * Charge a reconfiguration penalty: all future activity starts
     * after @p penalty extra cycles, and architectural register state
     * collapses onto Slice 0 (the Register Flush of section 3.8).
     */
    void chargeReconfiguration(Cycles penalty);

    /**
     * Digest of the warm architectural state a fast-forward must
     * reproduce: L1 I/D tags, branch predictor, memory-dependence
     * window, and the fetch-line tracker.  The sampling tests compare
     * this (plus L2System::stateDigest()) between a detailed and a
     * functional pass over the same stream prefix.
     */
    std::uint64_t warmStateDigest() const;

  private:
    SimConfig cfg_;
    VCoreId vc_;
    FabricPlacement placement_;
    L2System *l2_;
    unsigned s_; //!< Slice count
    // Hot-path strength reduction: the per-instruction slice sorts
    // (fetch and load/store home) divide by s_ and blockBytes; both
    // are usually powers of two, so precompute masks and a shift.
    bool slicePow2_;         //!< s_ is a power of two
    unsigned sliceMask_;     //!< s_ - 1 when slicePow2_
    unsigned l1dBlockShift_; //!< log2(cfg.l1d.blockBytes)
    unsigned l1iBlockShift_; //!< log2(cfg.l1i.blockBytes)

    // Networks (operand, LS-sorting; rename rides its own network but
    // its cost is the added pipeline depth).
    SwitchedNetwork operandNet_;
    SwitchedNetwork sortNet_;

    // Per-Slice structures.
    std::vector<CacheModel> l1i_;
    std::vector<CacheModel> l1d_;
    DistributedBranchPredictor predictor_;
    std::vector<OccupancyLimiter> rob_;         //!< frees in order
    std::vector<UnorderedOccupancy> issueQueue_; //!< frees at issue
    std::vector<UnorderedOccupancy> lsq_;        //!< unordered (s3.6)
    std::vector<OccupancyLimiter> lrf_;
    std::vector<OccupancyLimiter> storeBuffer_;
    std::vector<UnorderedOccupancy> mshr_;
    std::vector<SlottedPort> aluPort_;
    std::vector<SlottedPort> lsPort_;
    std::vector<SlottedPort> l1dPort_;
    UnitPort commitPort_;

    RenameState rename_;
    MemDepTracker memDep_;
    /** Cached remote copies: copyReady_[reg][slice] valid via mask. */
    std::vector<std::array<Cycles, SimConfig::kMaxSlices>> copyReady_;
    std::vector<std::uint16_t> copyMask_;
    std::vector<SeqNum> copySeq_;

    // Front-end state.
    Cycles nextFetchCycle_ = 0;  //!< earliest start of the next group
    Cycles curGroupCycle_ = 0;   //!< cycle of the in-progress group
    unsigned groupUsed_ = 0;     //!< instructions fetched this group
    Cycles lastCommit_ = 0;
    SeqNum seq_ = 0;
    bool done_ = false; //!< the last step() drained its source
    Addr lastFetchLine_ = ~Addr{0};

    SimStats stats_;
    SimStats funcStats_; //!< architectural events seen in fast-forward

    // Helpers.
    SliceId fetchSliceOf(Addr pc) const;
    SliceId homeSliceOf(Addr addr) const;
    unsigned frontDepth() const;
    Cycles readSource(RegIndex reg, SliceId my_slice, Cycles when);
    void writeDest(RegIndex reg, SliceId slice, Cycles ready);
    Cycles fetchOne(const TraceInst &ti, SliceId slice);
    void processOne(const TraceInst &ti);
    void fastForwardOne(const TraceInst &ti);
};

} // namespace sharch

#endif // SHARCH_CORE_VCORE_SIM_HH
