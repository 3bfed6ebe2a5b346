/**
 * @file
 * A spot market for sub-core resources (sections 2.1 and 2.3).
 *
 * EC2's Spot Pricing auctions whole VM instances; the Sharing
 * Architecture lets the provider auction Slices and 64 KB banks
 * separately and "price sub-core resources dynamically and based on
 * instantaneous market demand".  SpotMarket implements a tatonnement
 * loop: each round, customers solve their Equation 2 budget problem
 * at the posted prices, the provider compares aggregate demand with
 * the fabric's capacity, and prices move toward clearing.
 */

#ifndef SHARCH_HYPER_SPOT_MARKET_HH
#define SHARCH_HYPER_SPOT_MARKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "econ/market.hh"
#include "econ/optimizer.hh"

namespace sharch {

/**
 * Stable handle of one customer in a SpotMarket.  Ids are assigned
 * in addCustomer() order and never reused: a departed customer goes
 * inactive but keeps its slot, so a CustomerId stays valid across
 * later arrivals (a raw pointer into the customer vector would not)
 * and serializes cleanly into sharch-state-v1 documents.
 */
using CustomerId = std::uint32_t;

/** One bidder in the spot market. */
struct SpotCustomer
{
    std::string name;
    std::string benchmark;
    UtilityKind utility = UtilityKind::Throughput;
    double budget = 0.0;
    bool active = true; //!< departed customers stop bidding
};

/** A customer's demand at the current prices. */
struct SpotBid
{
    CustomerId customer = 0;
    OptResult choice;          //!< shape + v at current prices
    double slicesWanted = 0.0; //!< v * slices
    double banksWanted = 0.0;  //!< v * banks
};

/** One round's market state. */
struct SpotRound
{
    unsigned round = 0;
    Market prices;
    std::vector<SpotBid> bids;
    double sliceDemand = 0.0; //!< aggregate, in Slices
    double bankDemand = 0.0;  //!< aggregate, in banks
    double sliceExcess = 0.0; //!< demand/capacity - 1
    double bankExcess = 0.0;
};

/** Money returned to one customer after a capacity failure. */
struct SpotRefund
{
    CustomerId customer = 0;
    double amount = 0.0;
};

/** Outcome of re-auctioning after the fabric lost capacity. */
struct ReauctionResult
{
    double slicesLost = 0.0;
    double banksLost = 0.0;
    double refundTotal = 0.0;        //!< lost capacity at old prices
    std::vector<SpotRefund> refunds; //!< pro-rated by demand share
    std::vector<SpotRound> rounds;   //!< re-clearing history
};

/**
 * Everything a SpotMarket needs to be rebuilt exactly: capacities,
 * posted prices, the tatonnement round counter, and the customer
 * book in id order.  The AllocationEngine embeds this in its
 * sharch-state-v1 checkpoint document.
 */
struct SpotMarketSnapshot
{
    double sliceCapacity = 0.0;
    double bankCapacity = 0.0;
    Market prices;
    unsigned round = 0;
    std::vector<SpotCustomer> customers; //!< index == CustomerId
};

/** Default clearing policy: excess-demand band, tatonnement bound
 *  (one chip's epoch) and price step per round. */
inline constexpr double kClearingTolerance = 0.10;
inline constexpr unsigned kClearingRounds = 50;
inline constexpr double kPriceAdjustRate = 0.25;

/** Dynamic sub-core pricing over a fixed-capacity fabric. */
class SpotMarket
{
  public:
    /**
     * @param opt            shared performance surface
     * @param slice_capacity Slices the provider can lease
     * @param bank_capacity  64 KB banks the provider can lease
     */
    SpotMarket(UtilityOptimizer &opt, double slice_capacity,
               double bank_capacity);

    /** Register a bidder; the returned id is stable forever. */
    CustomerId addCustomer(SpotCustomer customer);

    /** The customer behind a SpotBid/SpotRefund handle. */
    const SpotCustomer &customer(CustomerId id) const;

    /** The whole book, active and departed, in id order. */
    const std::vector<SpotCustomer> &customers() const
    {
        return customers_;
    }

    /**
     * Take a customer out of the market (a tenant departed).  The
     * id stays valid for lookups; the customer just stops bidding.
     * @return false when the id was unknown or already inactive.
     */
    bool deactivateCustomer(CustomerId id);

    /** Bidders that still participate in auctions. */
    unsigned activeCustomers() const;

    /** Current posted prices (starts at Market2's area parity). */
    const Market &prices() const { return prices_; }

    /** Rounds stepped so far (the tatonnement clock). */
    unsigned round() const { return round_; }

    double sliceCapacity() const { return sliceCapacity_; }
    double bankCapacity() const { return bankCapacity_; }

    /**
     * Shrink leasable capacity (a fault took tiles out of service).
     * The remainder must stay positive: a provider with nothing to
     * sell has no market.
     */
    void reduceCapacity(double slices, double banks);

    /** Return healed capacity to the pool. */
    void restoreCapacity(double slices, double banks);

    /**
     * Run one tatonnement round: collect bids at current prices, then
     * move each price by `adjust_rate * excess demand` (bounded).
     */
    SpotRound step(double adjust_rate = kPriceAdjustRate);

    /**
     * Iterate until both excess demands are within @p tolerance or
     * @p max_rounds elapse.  @return the full round history.
     */
    std::vector<SpotRound>
    runToClearing(double tolerance = kClearingTolerance,
                  unsigned max_rounds = kClearingRounds,
                  double adjust_rate = kPriceAdjustRate);

    /**
     * React to the fabric losing @p slices_lost Slices and
     * @p banks_lost banks: refund the lost capacity at the *current*
     * prices (each customer pro-rated by their share of demand at
     * those prices -- customers who wanted more of the failed
     * resource get more money back), shrink capacity, and re-run the
     * auction to a new clearing.  refundTotal is exactly
     * slices_lost * slicePrice + banks_lost * bankPrice.
     */
    ReauctionResult
    reauctionAfterFailure(double slices_lost, double banks_lost,
                          double tolerance = kClearingTolerance,
                          unsigned max_rounds = kClearingRounds,
                          double adjust_rate = kPriceAdjustRate);

    /** Capture the full market state for a checkpoint. */
    SpotMarketSnapshot snapshot() const;

    /**
     * Replace the market state wholesale (checkpoint restore).  The
     * optimizer binding is unchanged: prices and books serialize,
     * the performance surface is reconstructed by the host.
     */
    void restore(const SpotMarketSnapshot &snap);

    /**
     * Deep self-check of the book and price invariants: capacities
     * positive and finite, prices finite and non-negative, every
     * budget finite and non-negative.  Used by AllocationEngine::
     * checkInvariants() before a recovered engine accepts traffic.
     * @return false with @p error naming the first violation.
     */
    bool checkConsistency(std::string *error) const;

  private:
    UtilityOptimizer *opt_;
    double sliceCapacity_;
    double bankCapacity_;
    Market prices_;
    std::vector<SpotCustomer> customers_;
    unsigned round_ = 0;
};

} // namespace sharch

#endif // SHARCH_HYPER_SPOT_MARKET_HH
