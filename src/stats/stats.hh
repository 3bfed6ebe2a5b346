/**
 * @file
 * Simulation statistics: named counters, scalar samples, and the
 * per-stage stall accounting the paper's SSim reports ("cycles executed
 * for a given workload along with cache miss rates and stage-based
 * micro-architecture stalls and statistics", section 5.2).
 */

#ifndef SHARCH_STATS_STATS_HH
#define SHARCH_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace sharch {

/** Pipeline stages for stall attribution. */
enum class Stage
{
    Fetch,
    Rename,
    Dispatch,
    Issue,
    Execute,
    Memory,
    Commit,
    NumStages
};

/** Printable stage name. */
const char *stageName(Stage s);

/** A monotonically increasing named counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Mean/min/max accumulator for scalar samples. */
class Sample
{
  public:
    void add(double v);
    std::uint64_t count() const { return count_; }
    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double total() const { return sum_; }
    void reset();

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** A fixed-bucket histogram over [0, buckets*width). */
class Histogram
{
  public:
    Histogram(std::size_t buckets, double width);

    void add(double v);
    std::uint64_t bucketCount(std::size_t i) const;
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t samples() const { return samples_; }

  private:
    std::vector<std::uint64_t> counts_;
    double width_;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
};

/**
 * Provenance of a sampled (SMARTS-style) run: how much of the stream
 * was measured vs. fast-forwarded, and per-counter 95% confidence
 * intervals on the extrapolated rates.  Inactive (and absent from all
 * serializations) for full detailed runs, so reports without --sample
 * stay byte-identical to historical output.
 */
struct SamplingInfo
{
    bool active = false;
    Count windows = 0;               //!< detailed measure windows
    Count measuredInstructions = 0;  //!< instructions inside them
    Count warmupInstructions = 0;    //!< detailed but unmeasured
    Count fastForwardInstructions = 0;

    // Relative 95% CI half-widths (1.96 * sd / (sqrt(m) * mean)) of
    // the per-window rates behind the extrapolated counters; 0 when
    // fewer than two windows were measured.
    double ciCpi = 0.0;
    double ciL1dMissRate = 0.0;
    double ciL2MissRate = 0.0;
    double ciBranchMispredictRate = 0.0;
};

/** Everything SSim reports at the end of one run. */
struct SimStats
{
    Cycles cycles = 0;
    Count instructionsCommitted = 0;
    Count instructionsFetched = 0;
    Count squashedInstructions = 0;

    Count branches = 0;
    Count branchMispredicts = 0;

    Count loads = 0;
    Count stores = 0;
    Count lsqViolations = 0;

    Count l1dAccesses = 0;
    Count l1dMisses = 0;
    Count l1iAccesses = 0;
    Count l1iMisses = 0;
    Count l2Accesses = 0;
    Count l2Misses = 0;
    Count coherenceInvalidations = 0;

    Count operandRequests = 0;   //!< remote operand request messages
    Count operandReplies = 0;
    Count operandNetworkHops = 0;
    Count operandNetworkStalls = 0; //!< injection-port back-pressure

    Count renameBroadcasts = 0;  //!< master-slice rename rounds

    // Latency decomposition sums over committed instructions (divide
    // by instructionsCommitted for means): dispatch->operands-ready,
    // ready->issue (port/window wait), issue->complete (execution,
    // transport, memory).
    Count sumOperandWait = 0;
    Count sumIssueWait = 0;
    Count sumExecLatency = 0;

    /** Cycles in which commit made no progress, attributed per stage. */
    std::array<Count, static_cast<std::size_t>(Stage::NumStages)>
        stallCycles{};

    /** Sampled-run provenance; inactive for full detailed runs. */
    SamplingInfo sampling;

    /**
     * Every summed counter, in declaration order.  merge() and the
     * sampling arithmetic walk this list; cycles and stallCycles keep
     * their own lines.
     */
    static constexpr std::array<Count SimStats::*, 23> kCounters{
        &SimStats::instructionsCommitted,
        &SimStats::instructionsFetched,
        &SimStats::squashedInstructions,
        &SimStats::branches,
        &SimStats::branchMispredicts,
        &SimStats::loads,
        &SimStats::stores,
        &SimStats::lsqViolations,
        &SimStats::l1dAccesses,
        &SimStats::l1dMisses,
        &SimStats::l1iAccesses,
        &SimStats::l1iMisses,
        &SimStats::l2Accesses,
        &SimStats::l2Misses,
        &SimStats::coherenceInvalidations,
        &SimStats::operandRequests,
        &SimStats::operandReplies,
        &SimStats::operandNetworkHops,
        &SimStats::operandNetworkStalls,
        &SimStats::renameBroadcasts,
        &SimStats::sumOperandWait,
        &SimStats::sumIssueWait,
        &SimStats::sumExecLatency,
    };

    void addStall(Stage s, Count by = 1)
    { stallCycles[static_cast<std::size_t>(s)] += by; }

    Count stall(Stage s) const
    { return stallCycles[static_cast<std::size_t>(s)]; }

    /** Committed instructions per cycle. */
    double ipc() const;
    double branchMispredictRate() const;
    double l1dMissRate() const;
    double l2MissRate() const;

    /** Merge another run's stats into this one (for multi-VCore VMs). */
    void merge(const SimStats &other);

    /** Human-readable multi-line report. */
    std::string report() const;

    /**
     * One JSON object with every counter, the derived rates, and the
     * per-stage stall cycles.  This is the "stats" section of the
     * sharch-report-v1 schema (see study/report.hh): ssim --json and
     * the study reports embed it verbatim, so every layer agrees on
     * field names.  Reals are emitted with "%.17g" -- equal stats
     * always serialize to identical bytes.
     */
    std::string toJson() const;
};

} // namespace sharch

#endif // SHARCH_STATS_STATS_HH
