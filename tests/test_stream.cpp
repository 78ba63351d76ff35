#include "src/sim/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/analysis/out_of_core.h"
#include "src/util/error.h"
#include "tests/test_support.h"

namespace fa::sim {
namespace {

// Records the full delivery sequence for assertions.
class RecordingSink final : public trace::StreamSink {
 public:
  void begin(const trace::StreamMeta& meta) override {
    EXPECT_FALSE(begun);
    begun = true;
    this->meta = meta;
  }
  void on_event(const trace::StreamEvent& event) override {
    EXPECT_TRUE(begun);
    EXPECT_FALSE(finished);
    events.push_back(event);
  }
  void finish(TimePoint end) override {
    EXPECT_TRUE(begun);
    EXPECT_FALSE(finished);
    finished = true;
    stream_end = end;
  }

  bool begun = false;
  bool finished = false;
  TimePoint stream_end = 0;
  trace::StreamMeta meta;
  std::vector<trace::StreamEvent> events;
};

StreamScenario shift_at_day(double day, double factor) {
  StreamScenario scenario;
  scenario.shifts.push_back({ticket_window().begin + from_days(day), factor});
  return scenario;
}

// ---- delivery-order oracle ----
// The emitter's contract in its most direct form: one entry per ticket and
// usage row, one full sort by (at, kind, record identity), a fresh event
// per delivery. emit_stream() must reproduce this sequence field for field.
struct Entry {
  TimePoint at = 0;
  trace::StreamEventKind kind = trace::StreamEventKind::kTicket;
  const trace::Ticket* ticket = nullptr;
  const trace::WeeklyUsage* usage = nullptr;
};

bool entry_less(const Entry& a, const Entry& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.kind == trace::StreamEventKind::kTicket) {
    return a.ticket->id < b.ticket->id;
  }
  if (a.usage->server != b.usage->server) {
    return a.usage->server < b.usage->server;
  }
  return a.usage->week < b.usage->week;
}

std::vector<trace::StreamEvent> reference_stream(
    const trace::TraceDatabase& db, const StreamScenario& scenario) {
  const ObservationWindow& window = db.window();
  const TimePoint stream_end =
      scenario.cutoff > 0 ? scenario.cutoff : window.end;
  std::vector<Entry> entries;
  for (const trace::Ticket& t : db.tickets()) {
    Entry e;
    e.ticket = &t;
    e.at = warp_time(scenario, window, t.opened);
    entries.push_back(e);
  }
  for (const trace::ServerRecord& s : db.servers()) {
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      Entry e;
      e.kind = trace::StreamEventKind::kUsage;
      e.usage = &u;
      e.at = usage_available_at(window, u.week);
      entries.push_back(e);
    }
  }
  std::sort(entries.begin(), entries.end(), entry_less);

  std::vector<trace::StreamEvent> events;
  for (const Entry& e : entries) {
    if (e.at >= stream_end) break;
    trace::StreamEvent event;
    event.kind = e.kind;
    event.at = e.at;
    if (e.kind == trace::StreamEventKind::kTicket) {
      event.ticket = *e.ticket;
      event.ticket.opened = e.at;
      event.ticket.closed = e.at + e.ticket->repair_time();
      event.machine_type = db.server(e.ticket->server).type;
    } else {
      event.usage = *e.usage;
      event.machine_type = db.server(e.usage->server).type;
    }
    events.push_back(std::move(event));
  }
  return events;
}

auto ticket_fields(const trace::Ticket& t) {
  return std::tie(t.id, t.incident, t.server, t.subsystem, t.is_crash,
                  t.true_class, t.opened, t.closed, t.description,
                  t.resolution);
}

auto usage_fields(const trace::WeeklyUsage& u) {
  return std::tie(u.server, u.week, u.cpu_util, u.mem_util, u.disk_util,
                  u.net_kbps);
}

// Every field of every event, both payloads and the free text included.
void expect_reference_stream(const trace::TraceDatabase& db,
                             const StreamScenario& scenario) {
  RecordingSink sink;
  emit_stream(db, scenario, sink);
  const std::vector<trace::StreamEvent> want = reference_stream(db, scenario);
  ASSERT_EQ(sink.events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const trace::StreamEvent& got = sink.events[i];
    SCOPED_TRACE("event " + std::to_string(i));
    ASSERT_EQ(got.kind, want[i].kind);
    ASSERT_EQ(got.at, want[i].at);
    ASSERT_EQ(got.machine_type, want[i].machine_type);
    ASSERT_TRUE(ticket_fields(got.ticket) == ticket_fields(want[i].ticket));
    ASSERT_TRUE(usage_fields(got.usage) == usage_fields(want[i].usage));
  }
  EXPECT_EQ(sink.stream_end,
            scenario.cutoff > 0 ? scenario.cutoff : db.window().end);
}

TEST(StreamScenario, ChangePointsSkipNoOpShifts) {
  const ObservationWindow w = ticket_window();
  StreamScenario scenario;
  scenario.shifts.push_back({w.begin + from_days(30), 1.0});   // no-op
  scenario.shifts.push_back({w.begin + from_days(90), 4.0});   // change
  scenario.shifts.push_back({w.begin + from_days(180), 4.0});  // no-op
  scenario.shifts.push_back({w.begin + from_days(270), 1.0});  // change back
  const auto points = scenario.change_points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], w.begin + from_days(90));
  EXPECT_EQ(points[1], w.begin + from_days(270));
}

TEST(WarpTime, IdentityWithoutShiftsOrOutsideWindow) {
  const ObservationWindow w = ticket_window();
  const StreamScenario stationary;
  EXPECT_EQ(warp_time(stationary, w, w.begin + from_days(100)),
            w.begin + from_days(100));
  const StreamScenario shifted = shift_at_day(180, 4.0);
  EXPECT_EQ(warp_time(shifted, w, w.begin - 1), w.begin - 1);
  EXPECT_EQ(warp_time(shifted, w, w.end + 5), w.end + 5);
}

TEST(WarpTime, MonotoneAndMeasurePreserving) {
  const ObservationWindow w = ticket_window();
  const StreamScenario scenario = shift_at_day(180, 4.0);
  // Intensity 1 on the first 180 days, 4 on the remaining 185: total mass
  // 180 + 4*185 = 920 "unit days". The warped image of original fraction u
  // is where the normalized intensity integral reaches u, so the original
  // point at u = 180/920 lands exactly on the shift instant.
  const double u_break = 180.0 / 920.0;
  const TimePoint t_break =
      w.begin + static_cast<TimePoint>(u_break * static_cast<double>(w.length()));
  const TimePoint shift_at = w.begin + from_days(180);
  EXPECT_NEAR(static_cast<double>(warp_time(scenario, w, t_break)),
              static_cast<double>(shift_at), static_cast<double>(from_days(1)));

  TimePoint prev = w.begin;
  for (int day = 0; day <= 364; ++day) {
    const TimePoint t = warp_time(scenario, w, w.begin + from_days(day));
    EXPECT_GE(t, prev);
    EXPECT_GE(t, w.begin);
    EXPECT_LT(t, w.end);
    prev = t;
  }
}

TEST(EmitStream, OrderedCompleteAndMetaPopulated) {
  const auto& db = fa::testing::small_simulated_db();
  RecordingSink sink;
  emit_stream(db, {}, sink);

  EXPECT_TRUE(sink.finished);
  EXPECT_EQ(sink.stream_end, db.window().end);
  EXPECT_EQ(sink.meta.server_count, db.servers().size());
  std::size_t type_total = 0, sys_total = 0;
  for (std::size_t n : sink.meta.servers_by_type) type_total += n;
  for (std::size_t n : sink.meta.servers_by_subsystem) sys_total += n;
  EXPECT_EQ(type_total, db.servers().size());
  EXPECT_EQ(sys_total, db.servers().size());

  std::size_t tickets = 0, usage = 0;
  TimePoint prev = sink.meta.window.begin;
  for (const trace::StreamEvent& e : sink.events) {
    EXPECT_GE(e.at, prev) << "stream must be timestamp-ordered";
    prev = e.at;
    if (e.kind == trace::StreamEventKind::kTicket) {
      ++tickets;
    } else {
      ++usage;
    }
  }
  EXPECT_EQ(tickets, db.tickets().size());
  // A weekly average becomes available at the end of its week; a week that
  // ends at (or past) the stream end is never delivered, everything earlier
  // arrives exactly once.
  const ObservationWindow& w = db.window();
  std::size_t available = 0;
  for (const trace::ServerRecord& s : db.servers()) {
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      if (usage_available_at(w, u.week) < w.end) ++available;
    }
  }
  EXPECT_EQ(usage, available);
}

TEST(EmitStream, StationaryReplayPreservesTimestamps) {
  const auto& db = fa::testing::small_simulated_db();
  RecordingSink sink;
  emit_stream(db, {}, sink);
  // Without a warp every ticket keeps its database opening time.
  std::map<std::int32_t, TimePoint> opened;
  for (const trace::Ticket& t : db.tickets()) opened[t.id.value] = t.opened;
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    EXPECT_EQ(e.at, opened.at(e.ticket.id.value));
  }
}

TEST(EmitStream, WarpShiftsRatesByTheScriptedFactor) {
  // A hand-built trace with exactly one crash per day: uniform unit
  // intensity, so the warped rate ratio is the scripted factor alone (the
  // simulated fleet has its own growth trend that would confound this).
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  for (int day = 0; day < 365; ++day) {
    b.add_crash(pm, day + 0.5, 1.0);
  }
  const auto db = b.finish();
  const StreamScenario scenario = shift_at_day(180, 4.0);
  RecordingSink sink;
  emit_stream(db, scenario, sink);

  const TimePoint shift_at = scenario.shifts[0].at;
  std::size_t tickets = 0, pre = 0, post = 0;
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    ++tickets;
    (e.at < shift_at ? pre : post)++;
  }
  // Measure-preserving: the warp moves events around, it never adds or
  // drops any.
  EXPECT_EQ(tickets, 365u);
  // Intensity 1 for 180 days then 4 for 185: mass 920 unit-days, so the
  // pre-shift segment holds 180/920 of the events (71-72 of 365) spread
  // over 180 days while the rest pack into 185 days — a x4 rate step.
  EXPECT_NEAR(static_cast<double>(pre), 365.0 * 180.0 / 920.0, 2.0);
  const double pre_rate = static_cast<double>(pre) / 180.0;
  const double post_rate = static_cast<double>(post) / 185.0;
  EXPECT_NEAR(post_rate / pre_rate, 4.0, 0.25);
}

TEST(EmitStream, WarpMatchesWarpTimePerTicket) {
  const auto& db = fa::testing::small_simulated_db();
  const StreamScenario scenario = shift_at_day(180, 4.0);
  std::map<std::int32_t, TimePoint> opened;
  for (const trace::Ticket& t : db.tickets()) opened[t.id.value] = t.opened;
  RecordingSink sink;
  emit_stream(db, scenario, sink);
  std::size_t tickets = 0;
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    ++tickets;
    ASSERT_EQ(e.at,
              warp_time(scenario, db.window(), opened.at(e.ticket.id.value)));
  }
  EXPECT_EQ(tickets, db.tickets().size());
}

TEST(EmitStream, RepairDurationsRideAlongTheWarp) {
  const auto& db = fa::testing::small_simulated_db();
  std::map<std::int32_t, Duration> repair;
  for (const trace::Ticket& t : db.tickets()) {
    repair[t.id.value] = t.repair_time();
  }
  RecordingSink sink;
  emit_stream(db, shift_at_day(180, 4.0), sink);
  for (const trace::StreamEvent& e : sink.events) {
    if (e.kind != trace::StreamEventKind::kTicket) continue;
    EXPECT_EQ(e.ticket.opened, e.at);
    EXPECT_EQ(e.ticket.repair_time(), repair.at(e.ticket.id.value));
  }
}

TEST(EmitStream, CutoffEndsTheStreamEarly) {
  const auto& db = fa::testing::small_simulated_db();
  StreamScenario scenario;
  scenario.cutoff = ticket_window().begin + from_days(100);
  RecordingSink sink;
  emit_stream(db, scenario, sink);
  EXPECT_EQ(sink.stream_end, scenario.cutoff);
  EXPECT_FALSE(sink.events.empty());
  for (const trace::StreamEvent& e : sink.events) {
    EXPECT_LT(e.at, scenario.cutoff);
  }
}

TEST(EmitStream, RejectsInvalidScenarios) {
  const auto& db = fa::testing::small_simulated_db();
  RecordingSink sink;
  StreamScenario outside;
  outside.shifts.push_back({ticket_window().end + 1, 2.0});
  EXPECT_THROW(emit_stream(db, outside, sink), Error);
  StreamScenario negative = shift_at_day(100, -1.0);
  EXPECT_THROW(emit_stream(db, negative, sink), Error);
  StreamScenario unsorted;
  unsorted.shifts.push_back({ticket_window().begin + from_days(200), 2.0});
  unsorted.shifts.push_back({ticket_window().begin + from_days(100), 3.0});
  EXPECT_THROW(emit_stream(db, unsorted, sink), Error);
  StreamScenario bad_cutoff;
  bad_cutoff.cutoff = ticket_window().end + from_days(1);
  EXPECT_THROW(emit_stream(db, bad_cutoff, sink), Error);
}

TEST(UsageAvailableAt, EndOfWeekClampedToTheWindowEnd) {
  const ObservationWindow w = ticket_window();
  EXPECT_EQ(usage_available_at(w, 0), w.begin + kMinutesPerWeek);
  EXPECT_EQ(usage_available_at(w, -1), w.begin);
  EXPECT_EQ(usage_available_at(w, -3), w.begin - 2 * kMinutesPerWeek);
  // 365 days hold 52 whole weeks: week 51 ends inside the window, week 52
  // would end past it.
  EXPECT_LT(usage_available_at(w, 51), w.end);
  EXPECT_EQ(usage_available_at(w, 52), w.end);
  // Extreme weeks, as a loaded trace may carry, are well defined.
  EXPECT_EQ(usage_available_at(w, std::numeric_limits<int>::max()), w.end);
  EXPECT_EQ(usage_available_at(w, std::numeric_limits<int>::min()),
            w.begin + (static_cast<TimePoint>(
                           std::numeric_limits<int>::min()) +
                       1) * kMinutesPerWeek);
}

TEST(EmitStream, UsageOfTheLastIntWeekIsNeverDelivered) {
  fa::testing::TinyDbBuilder b;
  const auto pm = b.add_pm(0);
  for (int week : {std::numeric_limits<int>::max(), 3}) {
    trace::WeeklyUsage u;
    u.server = pm;
    u.week = week;
    b.raw().add_weekly_usage(u);
  }
  const auto db = b.finish();
  RecordingSink sink;
  emit_stream(db, {}, sink);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].usage.week, 3);
}

TEST(EmitStream, ServerlessBackgroundTicketGetsTheDefaultMachineType) {
  fa::testing::TinyDbBuilder b;
  const auto vm = b.add_vm(1);
  b.add_crash(vm, 10.0, 2.0);
  trace::Ticket orphan;  // no server: sanitize cleared a dangling reference
  orphan.opened = ticket_window().begin + from_days(20.0);
  orphan.closed = orphan.opened + from_hours(1.0);
  orphan.description = "cpu utilization warning";
  b.raw().add_ticket(std::move(orphan));
  const auto db = b.finish();

  RecordingSink sink;
  emit_stream(db, {}, sink);
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].machine_type, trace::MachineType::kVirtual);
  EXPECT_FALSE(sink.events[1].ticket.server.valid());
  // The event is reused between deliveries: the VM's type must not leak.
  EXPECT_EQ(sink.events[1].machine_type, trace::StreamEvent{}.machine_type);
}

TEST(EmitStreamOracle, SimulatedTraceMatchesTheReference) {
  const auto& db = fa::testing::small_simulated_db();
  const ObservationWindow& w = db.window();
  StreamScenario cut = shift_at_day(180, 4.0);
  cut.cutoff = w.begin + from_days(200);
  StreamScenario two_shifts = shift_at_day(90, 2.0);
  two_shifts.shifts.push_back({w.begin + from_days(270), 0.5});
  for (const StreamScenario& scenario :
       {StreamScenario{}, shift_at_day(180, 4.0), cut, two_shifts}) {
    SCOPED_TRACE("shifts=" + std::to_string(scenario.shifts.size()) +
                 " cutoff=" + std::to_string(scenario.cutoff));
    expect_reference_stream(db, scenario);
  }
}

// A hand-built fleet that puts usage rows in `weeks` on three servers
// (added out of order, so finalize() does the (server, week) sort) and
// tickets on the awkward edges of the delivery order.
trace::TraceDatabase edge_case_db(const std::vector<int>& weeks) {
  fa::testing::TinyDbBuilder b;
  const ObservationWindow w = ticket_window();
  const trace::ServerId servers[] = {b.add_vm(1), b.add_pm(0), b.add_vm(2)};
  double cpu = 1.0;
  for (auto it = weeks.rbegin(); it != weeks.rend(); ++it) {
    for (const trace::ServerId server : {servers[2], servers[0], servers[1]}) {
      trace::WeeklyUsage u;
      u.server = server;
      u.week = *it;
      u.cpu_util = cpu;
      u.mem_util = 100.0 - cpu;
      if (server != servers[1]) {
        u.disk_util = cpu / 2.0;
        u.net_kbps = cpu * 3.0;
      }
      cpu += 1.0;
      b.raw().add_weekly_usage(u);
    }
  }
  const auto add_ticket = [&](trace::ServerId server, TimePoint opened,
                              const std::string& text) {
    trace::Ticket t;
    t.incident = b.new_incident();
    t.server = server;
    t.subsystem = b.raw().server(server).subsystem;
    t.is_crash = true;
    t.true_class = trace::FailureClass::kHardware;
    t.opened = opened;
    t.closed = opened + 90;
    t.description = text + " description, long enough to leave the SSO";
    t.resolution = text + " resolution";
    b.raw().add_ticket(std::move(t));
  };
  // Ticks exactly on week ends: ties with usage availability.
  add_ticket(servers[0], w.begin + kMinutesPerWeek, "on week 0 end");
  add_ticket(servers[1], w.begin + 10 * kMinutesPerWeek, "on week 9 end");
  // Opened outside the window: never warped, and the late one never sent.
  add_ticket(servers[2], w.begin - from_days(3), "before the window");
  add_ticket(servers[1], w.end + from_days(3), "after the window");
  // Later ids open earlier, a minute apart: under a x4 shift several
  // collide on one warped minute and the id breaks the tie.
  for (int k = 0; k < 30; ++k) {
    add_ticket(servers[k % 3], w.begin + from_days(300) - k,
               "collision " + std::to_string(k));
  }
  b.add_background(servers[0], 12.25);
  return b.finish();
}

TEST(EmitStreamOracle, HandBuiltEdgeCasesMatchTheReference) {
  const ObservationWindow w = ticket_window();
  StreamScenario cut = shift_at_day(180, 4.0);
  cut.cutoff = w.begin + from_days(300);
  const std::vector<StreamScenario> scenarios = {StreamScenario{},
                                                 shift_at_day(180, 4.0), cut};
  const std::vector<std::vector<int>> week_sets = {
      // One year: every row shares the high 16 bits of the week.
      {0, 1, 2, 9, 25, 51},
      // Negative weeks arrive before the window opens; both digits vary.
      {-100000, -70000, -2, -1, 0, 3, 51},
      // Weeks 65536 apart share the low 16 bits.
      {-131072, -65536, 0},
      // Weeks whose end clamps to the window end are never delivered.
      {50, 51, 52, 53, 70000},
  };
  for (const std::vector<int>& weeks : week_sets) {
    const trace::TraceDatabase db = edge_case_db(weeks);
    for (const StreamScenario& scenario : scenarios) {
      SCOPED_TRACE("weeks from " + std::to_string(weeks.front()) +
                   ", shifts=" + std::to_string(scenario.shifts.size()) +
                   " cutoff=" + std::to_string(scenario.cutoff));
      expect_reference_stream(db, scenario);
    }
  }
}

TEST(EmitStreamOracle, EdgeCaseFixtureHitsEveryEdge) {
  // Guards the fixture: the edges the oracle test relies on do occur.
  const trace::TraceDatabase db = edge_case_db({-2, -1, 0, 9, 52});
  const ObservationWindow& w = db.window();
  const auto ticket_ties = [](const std::vector<trace::StreamEvent>& events,
                              trace::StreamEventKind next) {
    std::size_t ties = 0;
    for (std::size_t i = 1; i < events.size(); ++i) {
      ties += events[i - 1].at == events[i].at &&
              events[i - 1].kind == trace::StreamEventKind::kTicket &&
              events[i].kind == next;
    }
    return ties;
  };
  const auto stationary = reference_stream(db, {});
  const auto warped = reference_stream(db, shift_at_day(180, 4.0));
  // Tickets opened on a week end tie with that week's usage rows.
  EXPECT_EQ(ticket_ties(stationary, trace::StreamEventKind::kUsage), 2u);
  // Under the x4 shift, reverse-id tickets share warped minutes.
  EXPECT_GT(ticket_ties(warped, trace::StreamEventKind::kTicket), 0u);
  // The early ticket and week -2's rows come before the window opens.
  EXPECT_EQ(std::count_if(stationary.begin(), stationary.end(),
                          [&](const auto& e) { return e.at < w.begin; }),
            4);
  // Week 52 ends at the window end and the late ticket after it.
  EXPECT_EQ(stationary.size(), db.tickets().size() - 1 + 4 * 3);
}

}  // namespace
}  // namespace fa::sim
