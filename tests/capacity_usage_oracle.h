// Serial map-based reference implementations of the Fig. 7/8 binned
// rates, for tests only. They join servers to bins through hash maps, one
// row at a time; the library bins through flat per-server arrays filled
// on the pool (analysis/capacity_usage.cpp), and test_capacity_usage pins
// that both compute the same BinnedRates.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/analysis/capacity_usage.h"

namespace fa::testing {

inline analysis::BinnedRates oracle_capacity_binned_rates(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures,
    const analysis::Scope& scope,
    const analysis::CapacityAttribute& attribute, stats::BinSpec spec) {
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();

  // Bin assignment per server.
  std::unordered_map<trace::ServerId, std::size_t> server_bin;
  std::vector<std::size_t> population(bins, 0);
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    const auto value = attribute(s);
    if (!value) continue;
    const auto bin = spec.index_of(*value);
    if (!bin) continue;
    server_bin.emplace(s.id, *bin);
    ++population[*bin];
  }

  // Failures per (bin, week).
  std::vector<std::vector<double>> weekly_failures(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> failure_count(bins, 0);
  for (const trace::Ticket* t : failures) {
    const auto it = server_bin.find(t->server);
    if (it == server_bin.end()) continue;
    const int w = db.window().week_index(t->opened);
    if (w < 0) continue;
    weekly_failures[it->second][static_cast<std::size_t>(w)] += 1.0;
    ++failure_count[it->second];
  }

  analysis::BinnedRates result{std::move(spec), std::move(population),
                               std::move(failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    auto& series = weekly_failures[b];
    for (double& v : series) v /= static_cast<double>(result.population[b]);
    result.weekly_summary[b] = stats::summarize(series);
    result.overall_rate[b] =
        static_cast<double>(result.failure_count[b]) /
        (static_cast<double>(result.population[b]) * weeks);
  }
  return result;
}

inline analysis::BinnedRates oracle_usage_binned_rates(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures,
    const analysis::Scope& scope, const analysis::UsageAttribute& attribute,
    stats::BinSpec spec) {
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();

  // Bin of each (server, week) from the monitoring rows.
  std::unordered_map<trace::ServerId, std::vector<int>> week_bin;
  std::vector<std::vector<double>> weekly_population(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> population(bins, 0);  // server-weeks
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    auto& slots = week_bin[s.id];
    slots.assign(static_cast<std::size_t>(weeks), -1);
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      if (u.week < 0 || u.week >= weeks) continue;
      const auto value = attribute(u);
      if (!value) continue;
      const auto bin = spec.index_of(*value);
      if (!bin) continue;
      slots[static_cast<std::size_t>(u.week)] = static_cast<int>(*bin);
      weekly_population[*bin][static_cast<std::size_t>(u.week)] += 1.0;
      ++population[*bin];
    }
  }

  std::vector<std::vector<double>> weekly_failures(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> failure_count(bins, 0);
  for (const trace::Ticket* t : failures) {
    const auto it = week_bin.find(t->server);
    if (it == week_bin.end()) continue;
    const int w = db.window().week_index(t->opened);
    if (w < 0) continue;
    const int bin = it->second[static_cast<std::size_t>(w)];
    if (bin < 0) continue;
    weekly_failures[static_cast<std::size_t>(bin)]
                   [static_cast<std::size_t>(w)] += 1.0;
    ++failure_count[static_cast<std::size_t>(bin)];
  }

  analysis::BinnedRates result{std::move(spec), std::move(population),
                               std::move(failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    // Weekly rate series over weeks with population in this bin.
    std::vector<double> rates;
    for (int w = 0; w < weeks; ++w) {
      const double pop = weekly_population[b][static_cast<std::size_t>(w)];
      if (pop <= 0.0) continue;
      rates.push_back(weekly_failures[b][static_cast<std::size_t>(w)] / pop);
    }
    if (!rates.empty()) result.weekly_summary[b] = stats::summarize(rates);
    result.overall_rate[b] = static_cast<double>(result.failure_count[b]) /
                             static_cast<double>(result.population[b]);
  }
  return result;
}

}  // namespace fa::testing
