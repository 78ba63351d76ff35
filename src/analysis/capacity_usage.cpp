#include "src/analysis/capacity_usage.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::analysis {
namespace {

// Servers per parallel task of the usage binning. A fixed block size keeps
// the task count, and so the pool's work counts, independent of the thread
// count.
constexpr std::size_t kServerBlock = 512;

// usage_binned_rates with (server, week) bins stored as `Slot`, a type
// narrow enough that the index of every (server, week) costs one byte for
// the paper's bin counts; Slot's maximum marks "no bin".
template <typename Slot>
BinnedRates usage_rates(const trace::TraceDatabase& db,
                        std::span<const trace::Ticket* const> failures,
                        const Scope& scope, const UsageAttribute& attribute,
                        stats::BinSpec spec) {
  constexpr Slot kNoBin = std::numeric_limits<Slot>::max();
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();
  const auto span = static_cast<std::size_t>(weeks);
  const std::size_t servers = db.servers().size();

  // Bin of server s in week w at week_bin[s * weeks + w], from its last
  // binned monitoring row that week; kNoBin for out-of-scope servers and
  // weeks without one. Server blocks fill disjoint rows in parallel, each
  // with its own server-week counts per (bin, week), summed in block order.
  std::vector<Slot> week_bin(servers * span, kNoBin);
  const std::size_t blocks = (servers + kServerBlock - 1) / kServerBlock;
  std::vector<std::vector<std::size_t>> block_population(blocks);
  parallel_for(blocks, [&](std::size_t block) {
    std::vector<std::size_t>& counts = block_population[block];
    counts.assign(bins * span, 0);
    const std::size_t end = std::min(servers, (block + 1) * kServerBlock);
    for (std::size_t s = block * kServerBlock; s < end; ++s) {
      const trace::ServerRecord& server = db.servers()[s];
      if (!scope.matches(server)) continue;
      Slot* slots = week_bin.data() + s * span;
      for (const trace::WeeklyUsage& u : db.weekly_usage_for(server.id)) {
        if (u.week < 0 || u.week >= weeks) continue;
        const auto value = attribute(u);
        if (!value) continue;
        const auto bin = spec.index_of(*value);
        if (!bin) continue;
        const auto w = static_cast<std::size_t>(u.week);
        slots[w] = static_cast<Slot>(*bin);
        ++counts[*bin * span + w];
      }
    }
  });
  std::vector<std::size_t> weekly_population(bins * span, 0);
  for (const std::vector<std::size_t>& counts : block_population) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      weekly_population[i] += counts[i];
    }
  }
  std::vector<std::size_t> population(bins, 0);  // server-weeks
  for (std::size_t i = 0; i < weekly_population.size(); ++i) {
    population[i / span] += weekly_population[i];
  }

  std::vector<std::size_t> weekly_failures(bins * span, 0);
  std::vector<std::size_t> failure_count(bins, 0);
  for (const trace::Ticket* t : failures) {
    const auto s = static_cast<std::size_t>(t->server.value);
    if (!t->server.valid() || s >= servers) continue;
    const int w = db.window().week_index(t->opened);
    if (w < 0) continue;
    const Slot bin = week_bin[s * span + static_cast<std::size_t>(w)];
    if (bin == kNoBin) continue;
    ++weekly_failures[bin * span + static_cast<std::size_t>(w)];
    ++failure_count[bin];
  }

  BinnedRates result{std::move(spec), std::move(population),
                     std::move(failure_count), {}, {}};
  result.overall_rate.resize(bins, 0.0);
  result.weekly_summary.resize(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    if (result.population[b] == 0) continue;
    // Weekly rate series over weeks with population in this bin.
    std::vector<double> rates;
    for (std::size_t w = 0; w < span; ++w) {
      const std::size_t pop = weekly_population[b * span + w];
      if (pop == 0) continue;
      rates.push_back(static_cast<double>(weekly_failures[b * span + w]) /
                      static_cast<double>(pop));
    }
    if (!rates.empty()) result.weekly_summary[b] = stats::summarize(rates);
    result.overall_rate[b] = static_cast<double>(result.failure_count[b]) /
                             static_cast<double>(result.population[b]);
  }
  return result;
}

}  // namespace

double BinnedRates::max_min_rate_factor() const {
  double lo = 0.0, hi = 0.0;
  for (double r : overall_rate) {
    if (r <= 0.0) continue;
    if (lo == 0.0 || r < lo) lo = r;
    if (r > hi) hi = r;
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

BinnedRates capacity_binned_rates(
    const trace::TraceDatabase& db,
    std::span<const trace::Ticket* const> failures, const Scope& scope,
    const CapacityAttribute& attribute, stats::BinSpec spec) {
  constexpr std::size_t kNoBin = std::numeric_limits<std::size_t>::max();
  const std::size_t bins = spec.bin_count();
  const int weeks = db.window().week_count();

  // Bin assignment per server id; kNoBin when unbinned or out of scope.
  std::vector<std::size_t> server_bin(db.servers().size(), kNoBin);
  std::vector<std::size_t> population(bins, 0);
  for (const trace::ServerRecord& s : db.servers()) {
    if (!scope.matches(s)) continue;
    const auto value = attribute(s);
    if (!value) continue;
    const auto bin = spec.index_of(*value);
    if (!bin) continue;
    server_bin[static_cast<std::size_t>(s.id.value)] = *bin;
    ++population[*bin];
  }

  // Failures per (bin, week).
  std::vector<std::vector<double>> weekly_failures(
      bins, std::vector<double>(static_cast<std::size_t>(weeks), 0.0));
  std::vector<std::size_t> failure_count(bins, 0);
  for (const trace::Ticket* t : failures) {
    const auto s = static_cast<std::size_t>(t->server.value);
    if (!t->server.valid() || s >= server_bin.size()) continue;
    const std::size_t bin = server_bin[s];
    if (bin == kNoBin) continue;
    const int w = db.window().week_index(t->opened);
    if (w < 0) continue;
    weekly_failures[bin][static_cast<std::size_t>(w)] += 1.0;
    ++failure_count[bin];
  }

  BinnedRates result{std::move(spec), std::move(population),
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

BinnedRates usage_binned_rates(const trace::TraceDatabase& db,
                               std::span<const trace::Ticket* const> failures,
                               const Scope& scope,
                               const UsageAttribute& attribute,
                               stats::BinSpec spec) {
  if (spec.bin_count() < std::numeric_limits<std::uint8_t>::max()) {
    return usage_rates<std::uint8_t>(db, failures, scope, attribute,
                                     std::move(spec));
  }
  return usage_rates<std::uint32_t>(db, failures, scope, attribute,
                                    std::move(spec));
}

}  // namespace fa::analysis
