/**
 * @file
 * The fleet-scale allocation engine: thousands of chips of tenant
 * churn on the same deterministic event spine the single-chip engine
 * runs on (EngineBase).
 *
 * FleetEngine is the only writer to its Fleet.  Every mutation is a
 * typed Event:
 *
 *   FleetArrive   admit a tenant somewhere in the fleet (placement
 *                 via the tiered index); a nonzero lifetime posts the
 *                 matching FleetDepart at arrival+lifetime, and a
 *                 stream-driven arrival posts the *next* stream
 *                 arrival (exactly one pending at a time -- the
 *                 pending event is the workload cursor).
 *   FleetDepart   tenant leaves; its chip is re-filed in the index.
 *   EpochAuction  batch repricing: only chips whose customer book
 *                 changed since the last epoch ("dirty" chips) re-run
 *                 tatonnement, then a churn sample (live tenants,
 *                 occupancy, revenue, SLA rejections, fragmentation)
 *                 is appended to the report's time series.  In
 *                 stream mode the epoch re-posts itself while work
 *                 remains.
 *   FaultStrike / Heal with a chip id: per-chip graceful
 *                 degradation; a tenant evicted by a fault is
 *                 re-placed elsewhere in the fleet when any chip
 *                 fits it (the fleet-level second chance a one-chip
 *                 hypervisor cannot offer).
 *   Checkpoint    handled by EngineBase: captures saveState().
 *
 * Because the spine, journal (sharch-journal-v1), and serve protocol
 * are all EngineBase-generic, `sharch-serve --fleet N` and the chaos
 * kill/resume harness work against this engine unchanged; the state
 * document is sharch-state-v1 with "kind":"fleet" and one
 * fabric+market section per materialized chip.
 */

#ifndef SHARCH_FLEET_FLEET_ENGINE_HH
#define SHARCH_FLEET_FLEET_ENGINE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/engine_base.hh"
#include "fleet/fleet.hh"
#include "fleet/workload_stream.hh"

namespace sharch::fleet {

/** Fixed parameters of one fleet engine (not mutable state). */
struct FleetEngineConfig
{
    FleetConfig fleet;            //!< chips and geometry
    Cycles epochPeriod = 50000;   //!< cycles between EpochAuctions
    /** Pending-event bound: posts past it are refused (0: default). */
    std::size_t maxPending = engine::kDefaultMaxPending;
};

/** One admitted tenant: its chip, fabric claim, market identity. */
struct FleetLease
{
    std::uint64_t id = 0;     //!< fleet-global, never reused
    std::string tenant;
    ChipId chip = 0;
    AllocationId local = 0;   //!< the chip-level allocation id
    CustomerId customer = 0;
    bool hasCustomer = false; //!< false for budget-less tenants
    unsigned slices = 0;      //!< current shape (faults may shrink)
    unsigned banks = 0;
    Cycles arrivedAt = 0;
};

/** One EpochAuction's churn sample (the study's time series). */
struct ChurnSample
{
    Cycles at = 0;
    std::uint64_t live = 0;          //!< leases alive at the epoch
    std::uint64_t leasedSlices = 0;
    std::uint64_t leasedBanks = 0;
    double revenue = 0.0;            //!< sum of price * leased, all chips
    double fragmentation = 0.0;      //!< mean over materialized chips
    std::uint64_t rejected = 0;      //!< SLA violations so far
    std::uint64_t evictions = 0;     //!< fault evictions so far
    std::uint64_t materialized = 0;  //!< chips ever touched
};

class FleetEngine : public engine::EngineBase
{
  public:
    FleetEngine(UtilityOptimizer &opt, const FleetEngineConfig &cfg);

    /**
     * Drive @p count tenants from @p stream through the engine:
     * posts tenant 0 and the first EpochAuction, then each
     * dispatched stream arrival posts its successor.  run() then
     * plays the whole horizon.  Must be called at most once, on a
     * fresh engine.
     */
    void startStream(const WorkloadStream &stream,
                     std::uint64_t count);

    /**
     * Re-attach the workload generator after restoreState() of a
     * checkpoint cut mid-stream.  The cursor itself (last posted
     * index, horizon) lives in the state document; only the pure
     * generator -- which is config, not state -- needs re-providing.
     * @p stream must be configured identically to the original run
     * for the resumed trajectory to be byte-identical.
     */
    void resumeStream(const WorkloadStream &stream)
    {
        stream_ = &stream;
    }

    /** Expand a fault schedule into chip-targeted events. */
    void postFaultSchedule(
        ChipId chip, const std::vector<fault::FaultEvent> &fs);

    // --- Queries -------------------------------------------------

    const FleetEngineConfig &config() const { return cfg_; }
    const Fleet &fleet() const { return fleet_; }
    const std::map<std::uint64_t, FleetLease> &leases() const
    {
        return leases_;
    }
    const std::vector<ChurnSample> &samples() const
    {
        return samples_;
    }
    std::uint64_t replacedAcrossChips() const { return replaced_; }

    /** Fleet-wide leased tile totals (O(live leases)). */
    std::uint64_t leasedSlices() const;
    std::uint64_t leasedBanks() const;

    // --- EngineBase state contract -------------------------------

    std::string saveState() const override;
    bool restoreState(const std::string &text,
                      std::string *error) override;
    bool checkInvariants(std::string *error) const override;
    study::Report finalReport() const override;

    // --- Serve-protocol adaptation -------------------------------

    engine::Event arriveEvent(Cycles at, std::string tenant,
                              std::string benchmark,
                              UtilityKind utility, double budget,
                              unsigned slices, unsigned banks,
                              Cycles lifetime) const override;
    engine::Event departEvent(Cycles at,
                              std::string tenant) const override;
    engine::Event priceEvent(Cycles at) const override;
    bool hasLease(std::uint64_t id) const override
    {
        return leases_.count(id) != 0;
    }
    std::size_t leaseCount() const override { return leases_.size(); }
    void addPriceReply(json::Value *reply) const override;
    void addStatsReply(json::Value *reply) const override;

  protected:
    void dispatchEvent(const engine::Event &e) override;

  private:
    UtilityOptimizer *opt_;
    FleetEngineConfig cfg_;
    Fleet fleet_;
    std::map<std::uint64_t, FleetLease> leases_;
    std::map<std::string, std::uint64_t> byName_;
    std::map<std::pair<ChipId, AllocationId>, std::uint64_t>
        byLocal_;
    std::uint64_t nextLease_ = 1;
    std::uint64_t replaced_ = 0; //!< evictions saved by re-placement
    std::set<ChipId> dirty_;     //!< chips needing an auction pass
    std::vector<ChurnSample> samples_;

    // Stream mode (inactive when streamEnd_ == 0).
    const WorkloadStream *stream_ = nullptr;
    std::uint64_t streamPrev_ = 0; //!< index of last posted arrival
    std::uint64_t streamEnd_ = 0;  //!< one past the last index

    void handleFleetArrive(const engine::Event &e);
    void handleFleetDepart(const engine::Event &e);
    void handleEpochAuction();
    void handleFault(const engine::Event &e);
    void handleHeal(const engine::Event &e);
    void handleReshape(const engine::Event &e);

    void admitLease(const engine::Event &e, const Placement &where);
    void dropLease(std::map<std::uint64_t, FleetLease>::iterator it);
    void degradeBookkeeping(ChipId chip,
                            const std::vector<DegradeAction> &acts);
    ChurnSample sampleNow() const;
};

} // namespace sharch::fleet

#endif // SHARCH_FLEET_FLEET_ENGINE_HH
