/**
 * @file
 * Shared sharch-state-v1 sections: the JSON form of one fabric and
 * one market snapshot.
 *
 * AllocationEngine serializes a single FabricManager + SpotMarket
 * pair; fleet::FleetEngine serializes one such pair per materialized
 * chip.  Both must emit byte-identical sections for identical
 * snapshots -- the checkpoint/restore and journal-recovery
 * byte-identity contracts hang off that -- so the encoding lives
 * here once.  The *FromJson() readers validate strictly; @p prefix
 * names the section in error messages ("fabric", or
 * "chips[3].fabric" in a fleet document).
 */

#ifndef SHARCH_ENGINE_STATE_JSON_HH
#define SHARCH_ENGINE_STATE_JSON_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "hyper/fabric_manager.hh"
#include "hyper/spot_market.hh"

namespace sharch::engine {

/** Set *@p error (when non-null) to @p what; always returns false. */
bool fail(std::string *error, const std::string &what);

/**
 * Strict field readers shared by every sharch-state-v1 parser: read
 * @p key of object @p v into @p out, or fail with
 * "<key> missing or not an unsigned integer" / "... not a number".
 */
bool fieldU64(const json::Value &v, const char *key, std::uint64_t *out,
              std::string *error);
bool fieldDouble(const json::Value &v, const char *key, double *out,
                 std::string *error);

/** The "fabric" object: geometry, allocations, faulty tiles. */
json::Value fabricToJson(const FabricSnapshot &fs);

/** Strict inverse of fabricToJson(). */
bool fabricFromJson(const json::Value &fab, const std::string &prefix,
                    FabricSnapshot *out, std::string *error);

/** The "market" object: capacities, round, prices, customer book. */
json::Value marketStateToJson(const SpotMarketSnapshot &ms);

/**
 * Strict inverse of marketStateToJson().  Also enforces the market
 * sanity rule: capacities must be positive (a provider with nothing
 * to sell has no market).
 */
bool marketStateFromJson(const json::Value &mkt,
                         const std::string &prefix,
                         SpotMarketSnapshot *out, std::string *error);

} // namespace sharch::engine

#endif // SHARCH_ENGINE_STATE_JSON_HH
