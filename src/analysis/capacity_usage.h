// Binned covariate analysis (paper Section V, Figs. 7 and 8): weekly failure
// rates of servers bucketed by a resource-capacity attribute, or of
// server-weeks bucketed by a weekly resource-usage value.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/analysis/failure_rates.h"
#include "src/stats/descriptive.h"
#include "src/stats/histogram.h"
#include "src/trace/database.h"

namespace fa::analysis {

// Extracts the attribute from a server's configuration, or nullopt when the
// attribute is not recorded for this machine (e.g. PM disk data).
using CapacityAttribute =
    std::function<std::optional<double>(const trace::ServerRecord&)>;

// Extracts the usage value from a weekly monitoring row.
using UsageAttribute =
    std::function<std::optional<double>(const trace::WeeklyUsage&)>;

struct BinnedRates {
  stats::BinSpec spec;
  // One entry per bin.
  std::vector<std::size_t> population;      // servers (capacity) or
                                            // server-weeks (usage)
  std::vector<std::size_t> failure_count;   // failures landing in the bin
  std::vector<double> overall_rate;         // failures / (population-weeks)
  // Weekly rate summaries (the mean + p25/p75 bars of Figs. 7-8); bins with
  // no population have count == 0.
  std::vector<stats::Summary> weekly_summary;

  // Ratio of the largest to the smallest positive overall rate — the paper's
  // "factor of NX" impact statements. Returns 0 when fewer than two bins
  // have positive rates.
  double max_min_rate_factor() const;
};

// Failure rate vs. a static configuration attribute. Servers without the
// attribute are excluded from both numerator and denominator.
BinnedRates capacity_binned_rates(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures, const Scope& scope,
    const CapacityAttribute& attribute, stats::BinSpec spec);

// Failure rate vs. a weekly usage value: each server-week lands in the bin
// of its recorded usage that week; failures are attributed to the bin of the
// (server, week) they occurred in (the last binned row of a week with
// duplicate rows). The monitoring rows are binned on the global ThreadPool
// in fixed server blocks, so `attribute` runs concurrently and must not
// mutate shared state; the result is identical at any thread count.
BinnedRates usage_binned_rates(const trace::TraceDatabase& db,
                               std::span<const trace::Ticket* const> failures,
                               const Scope& scope,
                               const UsageAttribute& attribute,
                               stats::BinSpec spec);

}  // namespace fa::analysis
