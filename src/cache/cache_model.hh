/**
 * @file
 * A set-associative, write-back, LRU cache tag model.
 *
 * Used for the per-Slice L1 I/D caches and for each 64 KB L2 bank.
 * Only tags are modelled (timing simulation does not need data).
 */

#ifndef SHARCH_CACHE_CACHE_MODEL_HH
#define SHARCH_CACHE_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "config/sim_config.hh"

namespace sharch {

/** Result of a cache access. */
struct AccessResult
{
    bool hit = false;
    bool writebackVictim = false; //!< a dirty line was evicted
    Addr victimLine = 0;          //!< line address of the victim
};

/** Tag-only set-associative cache with true-LRU replacement. */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig &cfg);

    /**
     * Access @p addr; on a miss the line is filled (allocate-on-miss
     * for both reads and writes) and the LRU victim evicted.
     *
     * Defined inline: every load, store, and fetch group in the
     * timing walk performs at least one tag access, and the call
     * overhead of the out-of-line version showed in end-to-end
     * instr/s.  Behaviour is unchanged.
     */
    AccessResult
    access(Addr addr, bool is_write)
    {
        ++accesses_;
        ++stamp_;
        AccessResult res;
        if (Line *line = findLine(addr)) {
            line->lruStamp = stamp_;
            line->dirty = line->dirty || is_write;
            res.hit = true;
            return res;
        }
        ++misses_;
        // Fill: evict the LRU way of the set.
        const Addr line = lineAddr(addr);
        const std::uint32_t set = setIndex(line);
        Line *base = &lines_[static_cast<std::size_t>(set) *
                             cfg_.associativity];
        Line *victim = &base[0];
        for (std::uint32_t w = 1; w < cfg_.associativity; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lruStamp < victim->lruStamp && victim->valid)
                victim = &base[w];
        }
        if (victim->valid && victim->dirty) {
            res.writebackVictim = true;
            res.victimLine = victim->tag;
        }
        victim->tag = line;
        victim->valid = true;
        victim->dirty = is_write;
        victim->lruStamp = stamp_;
        return res;
    }

    /** True when the line holding @p addr is present (no LRU update). */
    bool probe(Addr addr) const;

    /** Invalidate the line holding @p addr if present.
     *  @return true when an invalidation happened. */
    bool invalidate(Addr addr);

    /** Invalidate everything; @return number of dirty lines flushed. */
    std::size_t flushAll();

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t associativity() const { return cfg_.associativity; }
    std::uint64_t sizeBytes() const { return cfg_.sizeBytes; }
    std::uint32_t blockBytes() const { return cfg_.blockBytes; }

    /** The set the line holding @p addr maps to (reads no state). */
    std::uint32_t setOf(Addr addr) const
    { return setIndex(lineAddr(addr)); }

    Count accesses() const { return accesses_; }
    Count misses() const { return misses_; }

    /**
     * Digest of the architectural tag state: valid/dirty bits, tags,
     * and LRU order of every way.  Two caches that saw the same access
     * sequence digest identically; the sampling tests use this to show
     * a functional fast-forward leaves the same warm state as the
     * detailed walk.  Counters are excluded (they are statistics, not
     * state).
     */
    std::uint64_t stateDigest() const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lruStamp = 0;
    };

    CacheConfig cfg_;
    std::uint32_t numSets_;
    std::uint32_t setMask_ = 0; //!< numSets_ - 1 when numSets_ is pow2
    bool setsPow2_ = false;
    unsigned blockShift_;
    std::vector<Line> lines_; //!< numSets_ x associativity, row-major
    std::uint64_t stamp_ = 0;
    Count accesses_ = 0;
    Count misses_ = 0;

    Addr lineAddr(Addr addr) const { return addr >> blockShift_; }

    /**
     * Hashed set index.  Slices and L2 banks receive line-interleaved
     * address streams (every numSlices-th / numBanks-th line), so a
     * plain `line % numSets` would strand most sets; a multiplicative
     * hash spreads any interleaved stream over all sets.
     */
    std::uint32_t setIndex(Addr line) const
    {
        const Addr h = line * 0x9e3779b97f4a7c15ULL;
        const auto hi = static_cast<std::uint32_t>(h >> 32);
        // All stock geometries have power-of-two set counts, where
        // `hi & (numSets - 1)` equals `hi % numSets` exactly; the
        // modulo stays as the fallback for odd configs.
        return setsPow2_ ? (hi & setMask_) : (hi % numSets_);
    }

    Line *
    findLine(Addr addr)
    {
        const Addr line = lineAddr(addr);
        const std::uint32_t set = setIndex(line);
        Line *base = &lines_[static_cast<std::size_t>(set) *
                             cfg_.associativity];
        for (std::uint32_t w = 0; w < cfg_.associativity; ++w) {
            if (base[w].valid && base[w].tag == line)
                return &base[w];
        }
        return nullptr;
    }

    const Line *
    findLine(Addr addr) const
    {
        return const_cast<CacheModel *>(this)->findLine(addr);
    }
};

} // namespace sharch

#endif // SHARCH_CACHE_CACHE_MODEL_HH
