#include "src/trace/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "src/util/error.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace fa::trace {
namespace {

// finalize()'s error message, or "" when it succeeds.
std::string finalize_error(TraceDatabase& db) {
  try {
    db.finalize();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// finalize() scans the monitoring tables in blocks of this many rows; the
// tests below place rows on both sides of block boundaries.
constexpr int kBlockRows = 1 << 16;
// Servers of the multi-block databases below: ~185k usage rows.
constexpr int kServers = 8000;

struct MonitoringRows {
  std::vector<WeeklyUsage> usage;
  std::vector<PowerEvent> power;
  std::vector<MonthlySnapshot> snapshots;
};

// Rows for `servers` servers, in (server, time) order, spanning several
// scan blocks: servers whose id is a multiple of 7 have none, the others
// up to 53 usage weeks, a few power events and up to 23 snapshots.
MonitoringRows monitoring_rows(int servers) {
  MonitoringRows rows;
  for (int s = 0; s < servers; ++s) {
    if (s % 7 == 0) continue;
    const ServerId id{s};
    for (int w = 0; w < 1 + s % 53; ++w) {
      rows.usage.push_back({id, w, static_cast<double>(w), 1.0, {}, {}});
    }
    for (int e = 0; e < s % 5; ++e) {
      rows.power.push_back({id, onoff_window().begin + 60 * e, e % 2 == 0});
    }
    for (int m = 0; m < s % 24; ++m) {
      rows.snapshots.push_back({id, m, BoxId{0}, 1 + m});
    }
  }
  return rows;
}

TraceDatabase database_with(int servers, const MonitoringRows& rows) {
  TraceDatabase db;
  for (int s = 0; s < servers; ++s) db.add_server(ServerRecord{});
  for (const WeeklyUsage& u : rows.usage) db.add_weekly_usage(u);
  for (const PowerEvent& e : rows.power) db.add_power_event(e);
  for (const MonthlySnapshot& m : rows.snapshots) db.add_monthly_snapshot(m);
  return db;
}

TEST(Database, AssignsContiguousIds) {
  fa::testing::TinyDbBuilder b;
  const ServerId s0 = b.add_pm(0);
  const ServerId s1 = b.add_vm(1);
  EXPECT_EQ(s0.value, 0);
  EXPECT_EQ(s1.value, 1);
}

TEST(Database, QueriesBeforeFinalizeThrow) {
  TraceDatabase db;
  db.add_server(ServerRecord{});
  EXPECT_THROW(db.crash_tickets(), Error);
  EXPECT_THROW(db.weekly_usage_for(ServerId{0}), Error);
}

TEST(Database, MutationAfterFinalizeThrows) {
  TraceDatabase db;
  db.add_server(ServerRecord{});
  db.finalize();
  EXPECT_THROW(db.add_server(ServerRecord{}), Error);
  EXPECT_THROW(db.finalize(), Error);
}

TEST(Database, FinalizeValidatesReferentialIntegrity) {
  TraceDatabase db;
  Ticket t;
  t.is_crash = true;
  t.server = ServerId{42};  // no such server
  t.incident = db.new_incident();
  t.closed = t.opened + 10;
  db.add_ticket(std::move(t));
  EXPECT_THROW(db.finalize(), Error);
}

TEST(Database, FinalizeChecksTheServerOfBackgroundTicketsThatNameOne) {
  const auto background = [](ServerId server) {
    Ticket t;
    t.server = server;
    t.is_crash = false;
    t.closed = t.opened + 10;
    return t;
  };
  // No server at all is legal for a background ticket: sanitize clears a
  // dangling reference and keeps the ticket.
  fa::testing::TinyDbBuilder ok;
  ok.add_pm(0);
  ok.raw().add_ticket(background(ServerId{}));
  const TraceDatabase db = ok.finish();
  EXPECT_FALSE(db.tickets().front().server.valid());

  // A server it does name must exist.
  fa::testing::TinyDbBuilder bad;
  bad.add_pm(0);
  bad.raw().add_ticket(background(ServerId{1}));
  EXPECT_THROW(bad.finish(), Error);
}

TEST(Database, FinalizeRejectsNegativeRepair) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_pm(0);
  Ticket t;
  t.is_crash = true;
  t.server = s;
  t.incident = b.raw().new_incident();
  t.opened = 100;
  t.closed = 50;
  b.raw().add_ticket(std::move(t));
  EXPECT_THROW(b.raw().finalize(), Error);
}

TEST(Database, DanglingUsageServerMessageNamesTheTable) {
  fa::testing::TinyDbBuilder b;
  b.add_pm(0);
  WeeklyUsage u;
  u.server = ServerId{7};  // no such server
  b.raw().add_weekly_usage(u);
  try {
    b.raw().finalize();
    FAIL() << "finalize accepted a dangling usage row";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "TraceDatabase::finalize: dangling server id in usage");
  }
}

TEST(Database, AppendRowsAssignsRowIndexIds) {
  TraceDatabase db;
  db.add_server(ServerRecord{});
  const auto servers = db.append_rows<ServerRecord>(2);
  ASSERT_EQ(servers.size(), 2u);
  EXPECT_EQ(servers[0].id, ServerId{1});
  EXPECT_EQ(servers[1].id, ServerId{2});
  const auto tickets = db.append_rows<Ticket>(3);
  EXPECT_EQ(tickets[2].id, TicketId{2});
  const auto usage = db.append_rows<WeeklyUsage>(4);
  ASSERT_EQ(usage.size(), 4u);
  for (WeeklyUsage& u : usage) u.server = ServerId{0};
  db.finalize();
  EXPECT_EQ(db.servers().size(), 3u);
  EXPECT_EQ(db.tickets().size(), 3u);
  EXPECT_THROW(db.append_rows<PowerEvent>(1), Error);
}

TEST(Database, CrashTicketFiltersAndIndex) {
  fa::testing::TinyDbBuilder b;
  const ServerId pm = b.add_pm(0);
  const ServerId vm = b.add_vm(0);
  b.add_crash(pm, 1.0, 2.0);
  b.add_crash(pm, 5.0, 2.0);
  b.add_crash(vm, 7.0, 1.0);
  b.add_background(pm, 2.0);
  const auto db = b.finish();

  EXPECT_EQ(db.tickets().size(), 4u);
  EXPECT_EQ(db.crash_tickets().size(), 3u);
  EXPECT_EQ(db.crash_tickets_for(pm).size(), 2u);
  EXPECT_EQ(db.crash_tickets_for(vm).size(), 1u);
  EXPECT_TRUE(db.crash_tickets_for(ServerId{99}).empty());
}

TEST(Database, ServerCountsByTypeAndSubsystem) {
  fa::testing::TinyDbBuilder b;
  b.add_pm(0);
  b.add_pm(0);
  b.add_pm(1);
  b.add_vm(0);
  const auto db = b.finish();
  EXPECT_EQ(db.server_count(MachineType::kPhysical), 3u);
  EXPECT_EQ(db.server_count(MachineType::kVirtual), 1u);
  EXPECT_EQ(db.server_count(MachineType::kPhysical, 0), 2u);
  EXPECT_EQ(db.servers_of(MachineType::kPhysical, 1).size(), 1u);
}

TEST(Database, IncidentsGroupTickets) {
  fa::testing::TinyDbBuilder b;
  const ServerId s1 = b.add_pm(0);
  const ServerId s2 = b.add_pm(0);
  const auto shared = b.new_incident();
  b.add_crash(s1, 1.0, 2.0, FailureClass::kPower, shared);
  b.add_crash(s2, 1.0, 2.0, FailureClass::kPower, shared);
  b.add_crash(s1, 9.0, 2.0);
  const auto db = b.finish();
  const auto incidents = db.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  const std::size_t sizes[2] = {incidents[0].size(), incidents[1].size()};
  EXPECT_EQ(sizes[0] + sizes[1], 3u);
}

TEST(Database, WeeklyUsageSortedSpan) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_pm(0);
  b.raw().add_weekly_usage({s, 2, 30.0, 40.0, {}, {}});
  b.raw().add_weekly_usage({s, 0, 10.0, 20.0, {}, {}});
  const auto db = b.finish();
  const auto usage = db.weekly_usage_for(s);
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[0].week, 0);
  EXPECT_EQ(usage[1].week, 2);
  EXPECT_TRUE(db.weekly_usage_for(ServerId{5}).empty());
}

// The per-server indexes are flat arrays over the dense server ids: an
// invalid id, or one past the last server, must read as "no rows", never
// index out of bounds.
TEST(Database, PerServerLookupsOfUnknownIdsAreEmpty) {
  fa::testing::TinyDbBuilder b;
  const ServerId pm = b.add_pm(0);
  const ServerId vm = b.add_vm(0);
  b.add_crash(vm, 3.0, 1.0);
  b.raw().add_weekly_usage({vm, 0, 10.0, 20.0, {}, {}});
  b.raw().add_power_event({vm, onoff_window().begin + 60, false});
  b.raw().add_monthly_snapshot({vm, 0, BoxId{0}, 4});
  const auto db = b.finish();

  EXPECT_EQ(db.crash_tickets_for(vm).size(), 1u);
  EXPECT_EQ(db.weekly_usage_for(vm).size(), 1u);
  EXPECT_EQ(db.power_events_for(vm).size(), 1u);
  EXPECT_EQ(db.snapshots_for(vm).size(), 1u);
  // A loaded server with no rows.
  EXPECT_TRUE(db.crash_tickets_for(pm).empty());
  EXPECT_TRUE(db.weekly_usage_for(pm).empty());

  for (const ServerId id : {ServerId{}, ServerId{-7}, ServerId{2},
                            ServerId{1000}}) {
    EXPECT_TRUE(db.crash_tickets_for(id).empty()) << id.value;
    EXPECT_TRUE(db.weekly_usage_for(id).empty()) << id.value;
    EXPECT_TRUE(db.power_events_for(id).empty()) << id.value;
    EXPECT_TRUE(db.snapshots_for(id).empty()) << id.value;
  }
}

TEST(Database, PowerSeriesReconstructsState) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  const auto window = onoff_window();
  // Off for the second hour of the window.
  b.raw().add_power_event({s, window.begin + 60, false});
  b.raw().add_power_event({s, window.begin + 120, true});
  const auto db = b.finish();
  const ObservationWindow probe{window.begin, window.begin + 240};
  const auto series = db.power_series_for(s, probe);
  ASSERT_EQ(series.size(), 16u);  // 240 min / 15 min
  EXPECT_TRUE(series[0]);         // on before the off event
  EXPECT_FALSE(series[5]);        // 75 min: off
  EXPECT_TRUE(series[8]);         // 120 min: back on
  EXPECT_TRUE(series[15]);
}

TEST(Database, PowerSeriesDefaultsToOn) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  const auto db = b.finish();
  const auto window = onoff_window();
  const auto series = db.power_series_for(s, window);
  for (bool on : series) EXPECT_TRUE(on);
}

TEST(Database, ConsolidationAtUsesMonthlySnapshot) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  b.raw().add_monthly_snapshot({s, 0, BoxId{0}, 8});
  b.raw().add_monthly_snapshot({s, 1, BoxId{0}, 16});
  const auto db = b.finish();
  const TimePoint in_month0 = db.window().begin + from_days(10.0);
  const TimePoint in_month1 = db.window().begin + from_days(40.0);
  EXPECT_EQ(db.consolidation_at(s, in_month0), 8);
  EXPECT_EQ(db.consolidation_at(s, in_month1), 16);
  const TimePoint in_month2 = db.window().begin + from_days(70.0);
  EXPECT_EQ(db.consolidation_at(s, in_month2), 0);  // no snapshot
}

TEST(Database, SnapshotConsolidationValidation) {
  fa::testing::TinyDbBuilder b;
  const ServerId s = b.add_vm(0);
  b.raw().add_monthly_snapshot({s, 0, BoxId{0}, 0});  // invalid level
  EXPECT_THROW(b.raw().finalize(), Error);
}

// finalize() validates the tables in parallel blocks but must throw what a
// serial row loop would: the first failing table in the order tickets,
// usage, power, snapshots, and within it the lowest failing row.
TEST(Database, FinalizeThrowsTheTicketErrorBeforeALaterUsageDefect) {
  MonitoringRows rows = monitoring_rows(kServers);
  ASSERT_GT(rows.usage.size(), 2u * kBlockRows);
  rows.usage[kBlockRows + 10].server = ServerId{kServers};  // dangling
  TraceDatabase db = database_with(kServers, rows);
  Ticket t;
  t.is_crash = true;
  t.server = ServerId{kServers + 1000};  // dangling
  t.incident = db.new_incident();
  db.add_ticket(std::move(t));
  EXPECT_EQ(finalize_error(db),
            "TraceDatabase::finalize: dangling server id in ticket");
}

TEST(Database, FinalizeThrowsTheSerialMessageForDefectsInSeveralBlocks) {
  MonitoringRows rows = monitoring_rows(kServers);
  ASSERT_GT(rows.snapshots.size(), std::size_t{kBlockRows} + 100);
  ASSERT_GT(rows.usage.size(), 2u * kBlockRows);
  // Usage defects in two blocks, and a power defect in the first block of
  // a later table: the usage message wins.
  {
    MonitoringRows bad = rows;
    bad.usage[kBlockRows + 3].server = ServerId{};
    bad.usage[2 * kBlockRows + 3].server = ServerId{-4};
    bad.power[0].server = ServerId{kServers + 1};
    TraceDatabase db = database_with(kServers, bad);
    EXPECT_EQ(finalize_error(db),
              "TraceDatabase::finalize: dangling server id in usage");
  }
  // Snapshots fail two ways, here in two blocks; the lower row's message
  // is the one thrown, whichever check it fails.
  {
    MonitoringRows bad = rows;
    bad.snapshots[100].consolidation = 0;
    bad.snapshots[kBlockRows + 50].server = ServerId{kServers};
    TraceDatabase db = database_with(kServers, bad);
    EXPECT_EQ(finalize_error(db),
              "TraceDatabase::finalize: consolidation must be >= 1");
  }
  {
    MonitoringRows bad = rows;
    bad.snapshots[100].server = ServerId{kServers};
    bad.snapshots[kBlockRows + 50].consolidation = 0;
    TraceDatabase db = database_with(kServers, bad);
    EXPECT_EQ(finalize_error(db),
              "TraceDatabase::finalize: dangling server id in snapshot");
  }
  // A row that fails both checks reports its server first.
  {
    MonitoringRows bad = rows;
    bad.snapshots[5].server = ServerId{};
    bad.snapshots[5].consolidation = 0;
    TraceDatabase db = database_with(kServers, bad);
    EXPECT_EQ(finalize_error(db),
              "TraceDatabase::finalize: dangling server id in snapshot");
  }
}

// Rows that arrive out of order are sorted by (server, week) before they
// are indexed, across block boundaries too.
TEST(Database, UnsortedUsageGivesSortedPerServerSpans) {
  const MonitoringRows rows = monitoring_rows(kServers);
  MonitoringRows shuffled = rows;
  std::mt19937 gen(17);
  std::shuffle(shuffled.usage.begin(), shuffled.usage.end(), gen);
  const TraceDatabase sorted = [&] {
    TraceDatabase db = database_with(kServers, rows);
    db.finalize();
    return db;
  }();
  TraceDatabase db = database_with(kServers, shuffled);
  db.finalize();
  for (int s = 0; s < kServers; ++s) {
    const auto want = sorted.weekly_usage_for(ServerId{s});
    const auto got = db.weekly_usage_for(ServerId{s});
    ASSERT_EQ(got.size(), want.size()) << "server " << s;
    ASSERT_EQ(got.size(), s % 7 == 0 ? 0u : 1u + s % 53) << "server " << s;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].server, ServerId{s});
      EXPECT_EQ(got[i].week, static_cast<int>(i));
      EXPECT_EQ(got[i].cpu_util, want[i].cpu_util);
    }
  }
}

// The index does not depend on the thread count.
TEST(Database, IndexesAreIdenticalAtOneAndEightThreads) {
  const MonitoringRows rows = monitoring_rows(kServers);
  ASSERT_GT(rows.usage.size(), 2u * kBlockRows);
  std::vector<TraceDatabase> dbs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool::set_default_thread_count(threads);
    dbs.push_back(database_with(kServers, rows));
    dbs.back().finalize();
  }
  ThreadPool::set_default_thread_count(0);
  const TraceDatabase& a = dbs[0];
  const TraceDatabase& b = dbs[1];
  const WeeklyUsage* usage_a = a.weekly_usage_for(ServerId{1}).data();
  const WeeklyUsage* usage_b = b.weekly_usage_for(ServerId{1}).data();
  for (int s = -1; s <= kServers + 1; ++s) {
    const ServerId id{s};
    const auto ua = a.weekly_usage_for(id);
    const auto ub = b.weekly_usage_for(id);
    ASSERT_EQ(ua.size(), ub.size()) << "server " << s;
    if (!ua.empty()) EXPECT_EQ(ua.data() - usage_a, ub.data() - usage_b);
    EXPECT_EQ(a.power_events_for(id).size(), b.power_events_for(id).size());
    EXPECT_EQ(a.snapshots_for(id).size(), b.snapshots_for(id).size());
    if (s >= 0 && s < kServers) {
      EXPECT_EQ(ua.size(), s % 7 == 0 ? 0u : 1u + s % 53) << "server " << s;
      EXPECT_EQ(a.power_events_for(id).size(),
                s % 7 == 0 ? 0u : static_cast<std::size_t>(s % 5));
      EXPECT_EQ(a.snapshots_for(id).size(),
                s % 7 == 0 ? 0u : static_cast<std::size_t>(s % 24));
    }
  }
}

}  // namespace
}  // namespace fa::trace
