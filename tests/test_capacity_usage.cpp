#include "src/analysis/capacity_usage.h"

#include <gtest/gtest.h>

#include "src/util/thread_pool.h"
#include "tests/capacity_usage_oracle.h"
#include "tests/test_support.h"

namespace fa::analysis {
namespace {

const CapacityAttribute kCpuCount = [](const trace::ServerRecord& s) {
  return std::optional<double>(s.cpu_count);
};
const UsageAttribute kCpuUtil = [](const trace::WeeklyUsage& u) {
  return std::optional<double>(u.cpu_util);
};

// Every field of two BinnedRates, compared exactly.
void expect_same_rates(const BinnedRates& got, const BinnedRates& want,
                       const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.spec.bin_count(), want.spec.bin_count());
  for (std::size_t b = 0; b < want.spec.bin_count(); ++b) {
    EXPECT_EQ(got.spec.lower_edge(b), want.spec.lower_edge(b));
    EXPECT_EQ(got.spec.upper_edge(b), want.spec.upper_edge(b));
  }
  EXPECT_EQ(got.population, want.population);
  EXPECT_EQ(got.failure_count, want.failure_count);
  EXPECT_EQ(got.overall_rate, want.overall_rate);
  ASSERT_EQ(got.weekly_summary.size(), want.weekly_summary.size());
  for (std::size_t b = 0; b < want.weekly_summary.size(); ++b) {
    const stats::Summary& g = got.weekly_summary[b];
    const stats::Summary& w = want.weekly_summary[b];
    EXPECT_EQ(g.count, w.count) << "bin " << b;
    EXPECT_EQ(g.mean, w.mean) << "bin " << b;
    EXPECT_EQ(g.median, w.median) << "bin " << b;
    EXPECT_EQ(g.p25, w.p25) << "bin " << b;
    EXPECT_EQ(g.p75, w.p75) << "bin " << b;
    EXPECT_EQ(g.min, w.min) << "bin " << b;
    EXPECT_EQ(g.max, w.max) << "bin " << b;
    EXPECT_EQ(g.stddev, w.stddev) << "bin " << b;
  }
}

// Runs every panel of Figs. 7 and 8 on `db` and compares each with the
// map-based oracle.
void expect_matches_oracle(const trace::TraceDatabase& db,
                           std::span<const trace::Ticket* const> failures,
                           const std::string& what) {
  const Scope all{};
  const Scope pm{trace::MachineType::kPhysical, std::nullopt};
  const Scope vm{trace::MachineType::kVirtual, std::nullopt};
  const CapacityAttribute memory = [](const trace::ServerRecord& s) {
    return std::optional<double>(s.memory_gb);
  };
  const CapacityAttribute disk_gb = [](const trace::ServerRecord& s) {
    return s.disk_gb;
  };
  const UsageAttribute mem = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.mem_util);
  };
  const UsageAttribute disk = [](const trace::WeeklyUsage& u) {
    return u.disk_util;
  };
  const UsageAttribute net = [](const trace::WeeklyUsage& u) {
    return u.net_kbps;
  };
  const auto util = stats::BinSpec::from_edges({0, 10, 20, 30, 50, 70, 100});
  const auto net_bins =
      stats::BinSpec::from_edges({0, 2, 8, 64, 512, 2048, 10000});
  // More bins than one byte can index, to cover the wide slot type.
  const auto fine = stats::BinSpec::linear(0.0, 100.0, 300);

  struct CapacityPanel {
    const Scope& scope;
    const CapacityAttribute& attribute;
    stats::BinSpec spec;
  };
  const CapacityPanel capacity[] = {
      {pm, kCpuCount, stats::BinSpec::from_edges({1, 2, 3, 6, 12, 20, 128})},
      {vm, memory, stats::BinSpec::from_edges({0.1, 6, 12, 24, 64})},
      {vm, disk_gb, stats::BinSpec::from_edges({1, 12, 24, 48, 8192})},
      {all, kCpuCount, stats::BinSpec::from_edges({1, 4, 64})},
  };
  for (const CapacityPanel& p : capacity) {
    expect_same_rates(
        capacity_binned_rates(db, failures, p.scope, p.attribute, p.spec),
        fa::testing::oracle_capacity_binned_rates(db, failures, p.scope,
                                                  p.attribute, p.spec),
        what + " capacity");
  }
  struct UsagePanel {
    const Scope& scope;
    const UsageAttribute& attribute;
    const stats::BinSpec& spec;
  };
  const UsagePanel usage[] = {
      {pm, kCpuUtil, util}, {vm, kCpuUtil, util}, {pm, mem, util},
      {vm, mem, util},      {vm, disk, util},     {vm, net, net_bins},
      {all, kCpuUtil, fine},
  };
  for (const UsagePanel& p : usage) {
    expect_same_rates(
        usage_binned_rates(db, failures, p.scope, p.attribute, p.spec),
        fa::testing::oracle_usage_binned_rates(db, failures, p.scope,
                                               p.attribute, p.spec),
        what + " usage");
  }
}

TEST(CapacityBinned, ExactRatesAndPopulation) {
  fa::testing::TinyDbBuilder b;
  const auto small1 = b.add_pm(0, 2);
  const auto small2 = b.add_pm(0, 2);
  const auto big = b.add_pm(0, 16);
  b.add_crash(small1, 1.0, 1.0);
  b.add_crash(big, 2.0, 1.0);
  b.add_crash(big, 3.0, 1.0);
  (void)small2;
  const auto db = b.finish();
  const auto failures = db.crash_tickets();

  const auto result = capacity_binned_rates(
      db, failures, {}, kCpuCount,
      stats::BinSpec::from_edges({1.0, 8.0, 32.0}));

  ASSERT_EQ(result.population.size(), 2u);
  EXPECT_EQ(result.population[0], 2u);  // two 2-cpu machines
  EXPECT_EQ(result.population[1], 1u);  // one 16-cpu machine
  EXPECT_EQ(result.failure_count[0], 1u);
  EXPECT_EQ(result.failure_count[1], 2u);

  const int weeks = db.window().week_count();
  EXPECT_NEAR(result.overall_rate[0], 1.0 / (2.0 * weeks), 1e-12);
  EXPECT_NEAR(result.overall_rate[1], 2.0 / (1.0 * weeks), 1e-12);
}

TEST(CapacityBinned, MissingAttributeExcluded) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);   // no disk data
  const auto vm = b.add_vm(0);   // disk_gb = 128
  b.add_crash(pm, 1.0, 1.0);
  b.add_crash(vm, 2.0, 1.0);
  const auto db = b.finish();

  const CapacityAttribute disk = [](const trace::ServerRecord& s) {
    return s.disk_gb;
  };
  const auto result = capacity_binned_rates(
      db, db.crash_tickets(), {}, disk,
      stats::BinSpec::from_edges({0.0, 1000.0}));
  EXPECT_EQ(result.population[0], 1u);     // only the VM counts
  EXPECT_EQ(result.failure_count[0], 1u);  // the PM failure is excluded
}

TEST(CapacityBinned, MaxMinFactor) {
  BinnedRates r{stats::BinSpec::from_edges({0.0, 1.0, 2.0, 3.0}),
                {1, 1, 1},
                {0, 0, 0},
                {0.001, 0.0, 0.01},
                {}};
  EXPECT_DOUBLE_EQ(r.max_min_rate_factor(), 10.0);  // zero bins ignored
  BinnedRates empty{stats::BinSpec::from_edges({0.0, 1.0}),
                    {0}, {0}, {0.0}, {}};
  EXPECT_DOUBLE_EQ(empty.max_min_rate_factor(), 0.0);
}

TEST(UsageBinned, ServerWeeksBinnedByWeeklyValue) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  // Week 0 at 5% CPU, week 1 at 50%.
  b.raw().add_weekly_usage({pm, 0, 5.0, 20.0, {}, {}});
  b.raw().add_weekly_usage({pm, 1, 50.0, 20.0, {}, {}});
  // One failure in each week.
  b.add_crash(pm, 1.0, 1.0);
  b.add_crash(pm, 8.0, 1.0);
  const auto db = b.finish();

  const UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const auto result = usage_binned_rates(
      db, db.crash_tickets(), {}, cpu,
      stats::BinSpec::from_edges({0.0, 10.0, 100.0}));

  ASSERT_EQ(result.population.size(), 2u);
  EXPECT_EQ(result.population[0], 1u);  // one low-CPU server-week
  EXPECT_EQ(result.population[1], 1u);
  EXPECT_EQ(result.failure_count[0], 1u);
  EXPECT_EQ(result.failure_count[1], 1u);
  EXPECT_DOUBLE_EQ(result.overall_rate[0], 1.0);  // 1 failure / 1 server-week
  EXPECT_DOUBLE_EQ(result.overall_rate[1], 1.0);
}

TEST(UsageBinned, FailureInWeekWithoutUsageRowIgnored) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  b.raw().add_weekly_usage({pm, 0, 5.0, 20.0, {}, {}});
  b.add_crash(pm, 10.0, 1.0);  // week 1: no usage row
  const auto db = b.finish();
  const UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
    return std::optional<double>(u.cpu_util);
  };
  const auto result = usage_binned_rates(
      db, db.crash_tickets(), {}, cpu,
      stats::BinSpec::from_edges({0.0, 100.0}));
  EXPECT_EQ(result.failure_count[0], 0u);
  EXPECT_EQ(result.population[0], 1u);
}

TEST(UsageBinned, MissingOptionalUsageExcluded) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);  // PMs have no disk_util
  b.raw().add_weekly_usage({pm, 0, 5.0, 20.0, {}, {}});
  const auto db = b.finish();
  const UsageAttribute disk = [](const trace::WeeklyUsage& u) {
    return u.disk_util;
  };
  const auto result = usage_binned_rates(
      db, db.crash_tickets(), {}, disk,
      stats::BinSpec::from_edges({0.0, 100.0}));
  EXPECT_EQ(result.population[0], 0u);
}

TEST(CapacityBinned, SimulatedTraceShowsDiskCountTrend) {
  // Fig. 7d: VM failure rate increases with the number of virtual disks.
  const auto& db = fa::testing::small_simulated_db();
  const CapacityAttribute disks = [](const trace::ServerRecord& s) {
    return s.disk_count ? std::optional<double>(*s.disk_count)
                        : std::nullopt;
  };
  const auto result = capacity_binned_rates(
      db, db.crash_tickets(), {trace::MachineType::kVirtual, std::nullopt},
      disks, stats::BinSpec::from_edges({1.0, 2.0, 3.0, 7.0}));
  // Rate for 1 disk < rate for 2 disks < rate for 3+ disks.
  EXPECT_LT(result.overall_rate[0], result.overall_rate[1]);
  EXPECT_LT(result.overall_rate[1], result.overall_rate[2]);
}

// The flat, pool-filled binning computes exactly what the map-based oracle
// does on a simulated fleet spanning several server blocks, at any thread
// count.
TEST(BinnedRatesOracle, SimulatedTraceMatchesAtAnyThreadCount) {
  const auto& db = fa::testing::small_simulated_db();
  ASSERT_GT(db.servers().size(), 1024u);  // more than two server blocks
  const auto failures = db.crash_tickets();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    expect_matches_oracle(db, failures,
                          std::to_string(threads) + " threads");
  }
  ThreadPool::set_default_thread_count(0);
}

// Hand-built corner cases: duplicate (server, week) rows (the last binned
// row of the week owns its failures, every row counts), usage weeks and
// failures outside the window, failures on out-of-scope servers and on
// servers with no usage rows, background tickets without a server, and
// bins nobody lands in, over servers spread across several blocks.
TEST(BinnedRatesOracle, EdgeCasesMatch) {
  fa::testing::TinyDbBuilder b;
  std::vector<trace::ServerId> pms, vms;
  for (int i = 0; i < 1300; ++i) {
    if (i % 3 == 0) {
      vms.push_back(b.add_vm(0, 1 + i % 4, 2.0 + i % 7));
    } else {
      pms.push_back(b.add_pm(0, 1 + i % 5, 8.0 + i % 9));
    }
  }
  const int weeks = b.raw().window().week_count();
  for (std::size_t i = 0; i < pms.size(); ++i) {
    if (i % 5 == 4) continue;  // no usage rows at all
    const trace::ServerId s = pms[i];
    for (int w = 0; w < weeks; w += 1 + static_cast<int>(i % 3)) {
      const double cpu = static_cast<double>((i * 7 + w * 3) % 60);
      b.raw().add_weekly_usage({s, w, cpu, 20.0, {}, {}});
      // Duplicate row for the same week: binned, or out of range (ignored
      // for the slot but not over the earlier row's population).
      if ((i + w) % 11 == 0) {
        b.raw().add_weekly_usage({s, w, cpu + 25.0, 20.0, {}, {}});
      }
      if ((i + w) % 13 == 0) {
        b.raw().add_weekly_usage({s, w, 250.0, 20.0, {}, {}});
      }
    }
    if (i % 17 == 0) {
      b.raw().add_weekly_usage({s, -1, 5.0, 20.0, {}, {}});
      b.raw().add_weekly_usage({s, weeks, 5.0, 20.0, {}, {}});
    }
  }
  for (std::size_t i = 0; i < vms.size(); i += 2) {
    b.raw().add_weekly_usage({vms[i], static_cast<int>(i % 52), 42.0, 20.0,
                              {}, {}});
  }
  for (std::size_t i = 0; i < pms.size(); i += 3) {
    b.add_crash(pms[i], static_cast<double>(i % 365), 1.0);
  }
  for (std::size_t i = 0; i < vms.size(); i += 4) {
    b.add_crash(vms[i], static_cast<double>(i % 365), 1.0);
  }
  b.add_crash(pms[1], -3.0, 1.0);    // before the window
  b.add_crash(pms[2], 400.0, 1.0);   // after it
  trace::Ticket orphan;              // background, no server
  orphan.opened = b.raw().window().begin + from_days(5);
  orphan.closed = orphan.opened;
  b.raw().add_ticket(orphan);
  const auto db = b.finish();

  std::vector<const trace::Ticket*> failures;
  for (const trace::Ticket& t : db.tickets()) failures.push_back(&t);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    expect_matches_oracle(db, failures,
                          std::to_string(threads) + " threads");
    // Bins past every recorded value stay empty in both.
    const auto wide = stats::BinSpec::from_edges({0, 30, 60, 90, 95, 100});
    const auto got = usage_binned_rates(db, failures, {}, kCpuUtil, wide);
    EXPECT_EQ(got.population[3], 0u);
    EXPECT_EQ(got.population[4], 0u);
    expect_same_rates(got,
                      fa::testing::oracle_usage_binned_rates(
                          db, failures, {}, kCpuUtil, wide),
                      "empty bins");
  }
  ThreadPool::set_default_thread_count(0);
}

}  // namespace
}  // namespace fa::analysis
