/**
 * @file
 * Shared report shaping for the two market-efficiency studies (fig15,
 * fig16): the gain distribution and histogram tables over an
 * EfficiencyResult's customer-pair gains.
 */

#ifndef SHARCH_EFFICIENCY_TABLES_HH
#define SHARCH_EFFICIENCY_TABLES_HH

#include <algorithm>
#include <vector>

#include "econ/efficiency.hh"
#include "study/report.hh"

namespace sharch::bench {

/** Distribution + histogram tables of @p res's pair gains. */
inline void
gainTables(study::Report &report, const EfficiencyResult &res)
{
    std::vector<double> gains;
    gains.reserve(res.gains.size());
    for (const PairGain &g : res.gains)
        gains.push_back(g.gain);
    std::sort(gains.begin(), gains.end());
    auto pct = [&](double p) {
        return gains[static_cast<std::size_t>(p * (gains.size() - 1))];
    };

    study::Table &d = report.addTable(
        "gain_distribution", "Gain distribution over customer pairs");
    d.col("stat", study::Value::Kind::Text)
        .col("gain", study::Value::Kind::Real, 2);
    d.addRow({"min", gains.front()});
    d.addRow({"p25", pct(0.25)});
    d.addRow({"median", pct(0.50)});
    d.addRow({"p75", pct(0.75)});
    d.addRow({"p95", pct(0.95)});
    d.addRow({"max", gains.back()});
    d.addRow({"mean", res.meanGain});

    study::Table &h =
        report.addTable("histogram", "Histogram of pair gains");
    h.col("gain_lo", study::Value::Kind::Real, 2)
        .col("gain_hi", study::Value::Kind::Real, 2)
        .col("pairs", study::Value::Kind::Integer);
    const double top = std::max(2.0, gains.back());
    const int buckets = 12;
    for (int b = 0; b < buckets; ++b) {
        const double lo = b * top / buckets;
        const double hi = (b + 1) * top / buckets;
        std::size_t n = 0;
        for (double g : gains)
            if (g >= lo && g < hi)
                ++n;
        h.addRow({lo, hi, n});
    }
}

} // namespace sharch::bench

#endif // SHARCH_EFFICIENCY_TABLES_HH
