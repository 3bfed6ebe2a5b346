/**
 * @file
 * A Virtual Machine: one or more VCores sharing a banked L2.
 *
 * Single-threaded workloads run one VCore.  Multithreaded (PARSEC)
 * workloads run profile.numThreads equally configured VCores that
 * share the VM's L2 banks, with the coherence point between the L1s
 * and the L2 (section 3.5); VCores advance in round-robin chunks so
 * their cycle clocks stay aligned and bank/directory contention is
 * observed.
 */

#ifndef SHARCH_CORE_VM_SIM_HH
#define SHARCH_CORE_VM_SIM_HH

#include <memory>
#include <vector>

#include "cache/l2_system.hh"
#include "config/sim_config.hh"
#include "core/vcore_sim.hh"
#include "stats/stats.hh"
#include "trace/inst_source.hh"
#include "trace/instruction.hh"
#include "trace/profile.hh"

namespace sharch {

/** Result of a whole-VM simulation. */
struct VmResult
{
    SimStats aggregate;               //!< merged across VCores
    std::vector<SimStats> perVCore;
    Cycles cycles = 0;                //!< slowest VCore's finish time

    /** Aggregate committed instructions per cycle. */
    double throughput() const;
};

/** Simulates one VM over a set of per-thread traces. */
class VmSim
{
  public:
    /**
     * @param cfg     per-VCore configuration; cfg.numL2Banks is the
     *                cache attached *per VCore* -- the VM's shared L2
     *                has numL2Banks * num_vcores banks
     * @param num_vcores one VCore per thread
     */
    VmSim(const SimConfig &cfg, unsigned num_vcores);

    /**
     * Install steady-state cache contents for @p profile's workload:
     * each region's most-popular lines, best-ranked last, so LRU
     * retains them exactly as an infinitely long history would.
     * Eliminates the compulsory-miss transient of short traces.
     *
     * Valid only on a fresh VmSim, before any run or earlier prewarm
     * (asserted): it installs just the lines the walk would leave
     * resident, which reproduces the walk only in empty caches
     * (DESIGN.md §5).
     */
    void prewarm(const BenchmarkProfile &profile);

    /**
     * Run @p sources (one per VCore; lengths may differ) to
     * exhaustion.  VCores advance round-robin in @p chunk-instruction
     * quanta, so bank and directory contention is observed with the
     * same interleaving regardless of how the sources are backed --
     * a streamed run and a materialized run of the same workload
     * execute the identical global instruction order.
     *
     * @param chunk round-robin scheduling quantum in instructions
     */
    VmResult run(const std::vector<std::unique_ptr<InstSource>> &sources,
                 std::size_t chunk = 2000);

    /**
     * Compatibility path for callers holding materialized traces:
     * wraps each trace in a borrowing MaterializedTraceSource and
     * runs as above.
     */
    VmResult run(const std::vector<Trace> &traces,
                 std::size_t chunk = 2000);

    L2System &l2() { return *l2_; }

    /** Number of VCores (one per workload thread). */
    std::size_t numVCores() const { return vcores_.size(); }

    /** Direct access to VCore @p i (sampling controller, benches). */
    VCoreSim &vcore(std::size_t i) { return *vcores_[i]; }

  private:
    SimConfig cfg_;
    std::vector<FabricPlacement> placements_;
    std::unique_ptr<L2System> l2_;
    std::vector<std::unique_ptr<VCoreSim>> vcores_;
};

} // namespace sharch

#endif // SHARCH_CORE_VM_SIM_HH
