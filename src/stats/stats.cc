#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace sharch {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Fetch: return "fetch";
      case Stage::Rename: return "rename";
      case Stage::Dispatch: return "dispatch";
      case Stage::Issue: return "issue";
      case Stage::Execute: return "execute";
      case Stage::Memory: return "memory";
      case Stage::Commit: return "commit";
      default: return "unknown";
    }
}

void
Sample::add(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

double
Sample::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

void
Sample::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

Histogram::Histogram(std::size_t buckets, double width)
    : counts_(buckets, 0), width_(width)
{
    SHARCH_ASSERT(buckets > 0 && width > 0.0,
                  "histogram needs buckets and a positive width");
}

void
Histogram::add(double v)
{
    ++samples_;
    if (v < 0.0) {
        ++overflow_;
        return;
    }
    const auto idx = static_cast<std::size_t>(v / width_);
    if (idx >= counts_.size())
        ++overflow_;
    else
        ++counts_[idx];
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    SHARCH_ASSERT(i < counts_.size(), "histogram bucket out of range");
    return counts_[i];
}

double
SimStats::ipc() const
{
    return safeDiv(static_cast<double>(instructionsCommitted),
                   static_cast<double>(cycles));
}

double
SimStats::branchMispredictRate() const
{
    return safeDiv(static_cast<double>(branchMispredicts),
                   static_cast<double>(branches));
}

double
SimStats::l1dMissRate() const
{
    return safeDiv(static_cast<double>(l1dMisses),
                   static_cast<double>(l1dAccesses));
}

double
SimStats::l2MissRate() const
{
    return safeDiv(static_cast<double>(l2Misses),
                   static_cast<double>(l2Accesses));
}

void
SimStats::merge(const SimStats &other)
{
    cycles = std::max(cycles, other.cycles);
    for (Count SimStats::*c : kCounters)
        this->*c += other.*c;
    for (std::size_t i = 0; i < stallCycles.size(); ++i)
        stallCycles[i] += other.stallCycles[i];
    if (other.sampling.active) {
        // Conservative aggregate: counts add, interval widths take
        // the max.  SamplingController overwrites this with the CI it
        // computes from cross-VCore window sums, which is tighter.
        sampling.active = true;
        sampling.windows += other.sampling.windows;
        sampling.measuredInstructions +=
            other.sampling.measuredInstructions;
        sampling.warmupInstructions +=
            other.sampling.warmupInstructions;
        sampling.fastForwardInstructions +=
            other.sampling.fastForwardInstructions;
        sampling.ciCpi = std::max(sampling.ciCpi, other.sampling.ciCpi);
        sampling.ciL1dMissRate = std::max(
            sampling.ciL1dMissRate, other.sampling.ciL1dMissRate);
        sampling.ciL2MissRate = std::max(
            sampling.ciL2MissRate, other.sampling.ciL2MissRate);
        sampling.ciBranchMispredictRate =
            std::max(sampling.ciBranchMispredictRate,
                     other.sampling.ciBranchMispredictRate);
    }
}

std::string
SimStats::report() const
{
    std::ostringstream oss;
    oss << "cycles:                " << cycles << "\n"
        << "instructions:          " << instructionsCommitted << "\n"
        << "ipc:                   " << ipc() << "\n"
        << "fetched:               " << instructionsFetched << "\n"
        << "squashed:              " << squashedInstructions << "\n"
        << "branches:              " << branches
        << "  (mispredict rate " << branchMispredictRate() << ")\n"
        << "loads/stores:          " << loads << "/" << stores
        << "  (LSQ violations " << lsqViolations << ")\n"
        << "l1d miss rate:         " << l1dMissRate()
        << "  (" << l1dMisses << "/" << l1dAccesses << ")\n"
        << "l2 miss rate:          " << l2MissRate()
        << "  (" << l2Misses << "/" << l2Accesses << ")\n"
        << "coherence invals:      " << coherenceInvalidations << "\n"
        << "operand req/reply:     " << operandRequests << "/"
        << operandReplies << " (hops " << operandNetworkHops
        << ", stalls " << operandNetworkStalls << ")\n"
        << "rename broadcasts:     " << renameBroadcasts << "\n"
        << "avg operand wait:      "
        << safeDiv(double(sumOperandWait), double(instructionsCommitted))
        << "\n"
        << "avg issue wait:        "
        << safeDiv(double(sumIssueWait), double(instructionsCommitted))
        << "\n"
        << "avg exec latency:      "
        << safeDiv(double(sumExecLatency), double(instructionsCommitted))
        << "\n"
        << "stalls by stage:\n";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Stage::NumStages); ++i) {
        oss << "  " << stageName(static_cast<Stage>(i)) << ": "
            << stallCycles[i] << "\n";
    }
    if (sampling.active) {
        oss << "sampled run:           " << sampling.windows
            << " windows, " << sampling.measuredInstructions
            << " measured / " << sampling.warmupInstructions
            << " warm-up / " << sampling.fastForwardInstructions
            << " fast-forwarded\n"
            << "  ci95(cpi):           +/-"
            << sampling.ciCpi * 100.0 << "%\n";
    }
    return oss.str();
}

std::string
SimStats::toJson() const
{
    std::ostringstream oss;
    bool first = true;
    auto num = [&](const char *key, std::uint64_t v) {
        oss << (first ? "" : ",") << "\"" << key << "\":" << v;
        first = false;
    };
    auto real = [&](const char *key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        oss << (first ? "" : ",") << "\"" << key << "\":" << buf;
        first = false;
    };

    oss << "{";
    num("cycles", cycles);
    num("instructions_committed", instructionsCommitted);
    num("instructions_fetched", instructionsFetched);
    num("squashed_instructions", squashedInstructions);
    real("ipc", ipc());
    num("branches", branches);
    num("branch_mispredicts", branchMispredicts);
    real("branch_mispredict_rate", branchMispredictRate());
    num("loads", loads);
    num("stores", stores);
    num("lsq_violations", lsqViolations);
    num("l1d_accesses", l1dAccesses);
    num("l1d_misses", l1dMisses);
    real("l1d_miss_rate", l1dMissRate());
    num("l1i_accesses", l1iAccesses);
    num("l1i_misses", l1iMisses);
    num("l2_accesses", l2Accesses);
    num("l2_misses", l2Misses);
    real("l2_miss_rate", l2MissRate());
    num("coherence_invalidations", coherenceInvalidations);
    num("operand_requests", operandRequests);
    num("operand_replies", operandReplies);
    num("operand_network_hops", operandNetworkHops);
    num("operand_network_stalls", operandNetworkStalls);
    num("rename_broadcasts", renameBroadcasts);
    real("avg_operand_wait",
         safeDiv(double(sumOperandWait),
                 double(instructionsCommitted)));
    real("avg_issue_wait",
         safeDiv(double(sumIssueWait),
                 double(instructionsCommitted)));
    real("avg_exec_latency",
         safeDiv(double(sumExecLatency),
                 double(instructionsCommitted)));
    oss << ",\"stall_cycles\":{";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Stage::NumStages); ++i) {
        oss << (i ? "," : "") << "\""
            << stageName(static_cast<Stage>(i))
            << "\":" << stallCycles[i];
    }
    oss << "}";
    if (sampling.active) {
        // Appended only for sampled runs: full-run serialization stays
        // byte-identical to the historical format (golden-file test).
        first = true;
        oss << ",\"sampling\":{";
        num("windows", sampling.windows);
        num("measured_instructions", sampling.measuredInstructions);
        num("warmup_instructions", sampling.warmupInstructions);
        num("fastforward_instructions",
            sampling.fastForwardInstructions);
        oss << ",\"ci95_rel\":{";
        first = true;
        real("cpi", sampling.ciCpi);
        real("l1d_miss_rate", sampling.ciL1dMissRate);
        real("l2_miss_rate", sampling.ciL2MissRate);
        real("branch_mispredict_rate",
             sampling.ciBranchMispredictRate);
        oss << "}}";
    }
    oss << "}";
    return oss.str();
}

} // namespace sharch
