/**
 * @file
 * The event-driven allocation engine (ROADMAP item 5).
 *
 * AllocationEngine owns one FabricManager + SpotMarket pair and is
 * the ONLY writer to either: every mutation arrives as a typed Event
 * (event.hh) on a deterministic queue ordered by (cycle, posting
 * order), so identical event streams produce identical hypervisor
 * trajectories regardless of who generated them -- a study script,
 * a replayed fault schedule, or a sharch-serve request stream.
 *
 * Because all state flows through one place, the engine can
 * serialize everything that matters -- occupancy grid, live leases,
 * market book and prices, the event clock, and the still-pending
 * queue -- into a versioned `sharch-state-v1` JSON document and
 * restore it byte-exactly: a run checkpointed mid-stream and resumed
 * in a fresh process emits a final report byte-identical to the
 * uninterrupted run.  That is what makes multi-day churn experiments
 * resumable and the serve daemon restartable.
 *
 * The queue/clock/hook machinery itself lives in EngineBase
 * (engine_base.hh), shared with the fleet engine; this class adds
 * the single-chip event semantics and state document.
 */

#ifndef SHARCH_ENGINE_ALLOCATION_ENGINE_HH
#define SHARCH_ENGINE_ALLOCATION_ENGINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine_base.hh"
#include "engine/event.hh"
#include "hyper/fabric_manager.hh"
#include "hyper/spot_market.hh"
#include "study/report.hh"

namespace sharch::engine {

/**
 * Fixed parameters of one engine (not part of mutable state).  The
 * auction runs SpotMarket::runToClearing()'s defaults and the queue
 * holds kDefaultMaxPending events.
 */
struct EngineConfig
{
    int fabricWidth = 8;
    int fabricHeight = 8;
};

/** One admitted tenant: fabric claim + market identity. */
struct Lease
{
    std::uint64_t id = 0; //!< == the fabric AllocationId
    std::string tenant;
    CustomerId customer = 0;
    bool hasCustomer = false; //!< false for fabric-only tenants
    unsigned slices = 0;      //!< current shape (faults may shrink)
    unsigned banks = 0;
    Cycles arrivedAt = 0;
};

class AllocationEngine : public EngineBase
{
  public:
    /**
     * @param opt shared performance surface (bids need P(c, s))
     * @param cfg geometry + auction policy; market capacity starts
     *            at the fabric's totals
     */
    AllocationEngine(UtilityOptimizer &opt, const EngineConfig &cfg);

    /** Expand a fault schedule into FaultStrike/Heal events. */
    void postFaultSchedule(const std::vector<fault::FaultEvent> &fs);

    // --- Queries -------------------------------------------------

    const EngineConfig &config() const { return cfg_; }
    const FabricManager &fabric() const { return fabric_; }
    const SpotMarket &market() const { return market_; }
    const std::map<std::uint64_t, Lease> &leases() const
    {
        return leases_;
    }

    // --- EngineBase state contract -------------------------------

    std::string saveState() const override;
    bool restoreState(const std::string &text,
                      std::string *error) override;

    /**
     * Cross-layer consistency audit: the fabric occupancy grids
     * match the allocation book (FabricManager::checkConsistency),
     * the market book and prices are sane (SpotMarket::
     * checkConsistency), leases and fabric allocations are a
     * bijection with matching shapes, every lease's customer handle
     * resolves to an active bidder, and the occupancy arithmetic
     * closes (leased + free + faulty == total, for Slices and
     * banks).  Recovery refuses to serve a state that fails this.
     */
    bool checkInvariants(std::string *error) const override;

    study::Report finalReport() const override;

    bool hasLease(std::uint64_t id) const override
    {
        return leases_.count(id) != 0;
    }
    std::size_t leaseCount() const override { return leases_.size(); }
    void addPriceReply(json::Value *reply) const override;
    void addStatsReply(json::Value *reply) const override;

  protected:
    void dispatchEvent(const Event &e) override;

  private:
    UtilityOptimizer *opt_;
    EngineConfig cfg_;
    FabricManager fabric_;
    SpotMarket market_;
    std::map<std::uint64_t, Lease> leases_;

    void handleArrive(const Event &e);
    void handleDepart(const Event &e);
    void handleReshape(const Event &e);
    void handleFault(const Event &e);
    void handleHeal(const Event &e);
    void handleEpoch();
    void degradeBookkeeping(const std::vector<DegradeAction> &acts);
};

} // namespace sharch::engine

#endif // SHARCH_ENGINE_ALLOCATION_ENGINE_HH
