#include "src/sim/stream.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/error.h"

namespace fa::sim {
namespace {

// Piecewise-constant relative intensity of the scenario over `window`:
// segment i covers [edges[i], edges[i+1]) with intensity factors[i].
struct Timeline {
  std::vector<TimePoint> edges;   // size n+1, edges.front()=begin, back()=end
  std::vector<double> factors;    // size n, all > 0
  std::vector<double> cum_mass;   // size n+1, cum_mass[i] = mass before edge i
  double total_mass = 0.0;
};

Timeline build_timeline(const StreamScenario& scenario,
                        const ObservationWindow& window) {
  Timeline tl;
  tl.edges.push_back(window.begin);
  tl.factors.push_back(1.0);
  TimePoint prev = window.begin;
  for (const HazardShift& s : scenario.shifts) {
    require(s.factor > 0.0, "emit_stream: hazard shift factor must be > 0");
    require(s.at > prev && s.at < window.end,
            "emit_stream: hazard shifts must be strictly increasing and "
            "inside the stream window");
    prev = s.at;
    tl.edges.push_back(s.at);
    tl.factors.push_back(s.factor);
  }
  tl.edges.push_back(window.end);
  tl.cum_mass.resize(tl.edges.size(), 0.0);
  for (std::size_t i = 0; i < tl.factors.size(); ++i) {
    tl.cum_mass[i + 1] =
        tl.cum_mass[i] +
        tl.factors[i] * static_cast<double>(tl.edges[i + 1] - tl.edges[i]);
  }
  tl.total_mass = tl.cum_mass.back();
  return tl;
}

// Maps window fraction u in [0, 1] to the point where the normalized
// integral of the timeline intensity reaches u (inverse-CDF of r / |r|).
TimePoint warp_fraction(const Timeline& tl, const ObservationWindow& window,
                        double u) {
  const double target = u * tl.total_mass;
  // Find the segment holding `target` mass (few segments: linear scan).
  std::size_t i = 0;
  while (i + 1 < tl.factors.size() && tl.cum_mass[i + 1] < target) ++i;
  const double within = (target - tl.cum_mass[i]) / tl.factors[i];
  const TimePoint warped =
      tl.edges[i] + static_cast<TimePoint>(std::llround(within));
  return std::clamp(warped, window.begin, window.end - 1);
}

// A ticket's place in the delivery order: its (warped) opening time, then
// its id. `row` indexes db.tickets().
struct TicketKey {
  TimePoint at = 0;
  std::int32_t id = 0;
  std::uint32_t row = 0;
};

// The tickets opened (after the warp) before `stream_end`, in delivery
// order.
std::vector<TicketKey> tickets_in_order(const trace::TraceDatabase& db,
                                        const Timeline* warp,
                                        TimePoint stream_end) {
  const ObservationWindow& window = db.window();
  const std::vector<trace::Ticket>& tickets = db.tickets();
  std::vector<TicketKey> keys;
  keys.reserve(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const trace::Ticket& t = tickets[i];
    TimePoint at = t.opened;
    if (warp != nullptr && window.contains(t.opened)) {
      const double u = static_cast<double>(t.opened - window.begin) /
                       static_cast<double>(window.length());
      at = warp_fraction(*warp, window, u);
    }
    if (at < stream_end) {
      keys.push_back({at, t.id.value, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const TicketKey& a, const TicketKey& b) {
              return a.at != b.at ? a.at < b.at : a.id < b.id;
            });
  return keys;
}

// The usage rows available before `stream_end`, in (week, server) order.
// Availability depends on the week alone and grows strictly with it below
// the window end, so this is the (at, server, week) delivery order. The
// database holds rows in (server, week) order; a stable LSD counting sort
// on the week, in two 16-bit digits, reorders them in linear time. A
// digit every row shares is skipped, so a one-year trace takes one pass.
std::vector<const trace::WeeklyUsage*> usage_in_order(
    const trace::TraceDatabase& db, TimePoint stream_end) {
  std::size_t total = 0;
  for (const trace::ServerRecord& s : db.servers()) {
    total += db.weekly_usage_for(s.id).size();
  }
  std::vector<const trace::WeeklyUsage*> rows;
  rows.reserve(total);
  for (const trace::ServerRecord& s : db.servers()) {
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      if (usage_available_at(db.window(), u.week) < stream_end) {
        rows.push_back(&u);
      }
    }
  }
  // Digit d of the week with its sign bit flipped, so negative weeks sort
  // first.
  const auto digit = [](const trace::WeeklyUsage* u, int d) {
    const std::uint32_t key =
        static_cast<std::uint32_t>(u->week) ^ 0x8000'0000u;
    return (key >> (16 * d)) & 0xFFFFu;
  };
  // Per digit, counts shifted by one so an in-place prefix sum gives each
  // bucket's first output slot.
  constexpr std::size_t kBuckets = std::size_t{1} << 16;
  std::vector<std::size_t> start[2] = {std::vector<std::size_t>(kBuckets + 1),
                                       std::vector<std::size_t>(kBuckets + 1)};
  for (const trace::WeeklyUsage* u : rows) {
    ++start[0][digit(u, 0) + 1];
    ++start[1][digit(u, 1) + 1];
  }
  std::vector<const trace::WeeklyUsage*> sorted;
  for (int d : {0, 1}) {
    if (std::count(start[d].begin(), start[d].end(), rows.size()) > 0) {
      continue;
    }
    std::partial_sum(start[d].begin(), start[d].end(), start[d].begin());
    sorted.resize(rows.size());
    for (const trace::WeeklyUsage* u : rows) {
      sorted[start[d][digit(u, d)]++] = u;
    }
    rows.swap(sorted);
  }
  return rows;
}

}  // namespace

std::vector<TimePoint> StreamScenario::change_points() const {
  std::vector<TimePoint> points;
  double factor = 1.0;
  for (const HazardShift& s : shifts) {
    if (s.factor != factor) points.push_back(s.at);
    factor = s.factor;
  }
  return points;
}

TimePoint usage_available_at(const ObservationWindow& window, int week) {
  return std::min(
      window.begin + (static_cast<TimePoint>(week) + 1) * kMinutesPerWeek,
      window.end);
}

TimePoint warp_time(const StreamScenario& scenario,
                    const ObservationWindow& window, TimePoint t) {
  if (scenario.shifts.empty() || !window.contains(t)) return t;
  const Timeline tl = build_timeline(scenario, window);
  const double u = static_cast<double>(t - window.begin) /
                   static_cast<double>(window.length());
  return warp_fraction(tl, window, u);
}

void emit_stream(const trace::TraceDatabase& db,
                 const StreamScenario& scenario, trace::StreamSink& sink) {
  obs::Span span("detect.emit_stream");
  require(db.finalized(), "emit_stream: database must be finalized");
  const ObservationWindow& window = db.window();
  const bool warp = !scenario.shifts.empty();
  Timeline tl;
  if (warp) tl = build_timeline(scenario, window);
  const TimePoint stream_end =
      scenario.cutoff > 0 ? scenario.cutoff : window.end;
  require(stream_end > window.begin && stream_end <= window.end,
          "emit_stream: cutoff must lie inside the stream window");

  trace::StreamMeta meta;
  meta.window = window;
  meta.server_count = db.servers().size();
  for (const trace::ServerRecord& s : db.servers()) {
    ++meta.servers_by_type[static_cast<std::size_t>(s.type)];
    ++meta.servers_by_subsystem[s.subsystem];
  }

  const std::vector<TicketKey> tickets =
      tickets_in_order(db, warp ? &tl : nullptr, stream_end);
  const std::vector<const trace::WeeklyUsage*> usage =
      usage_in_order(db, stream_end);

  sink.begin(meta);
  // One event per kind serves every delivery: assigning a ticket reuses the
  // capacity its strings already hold, and the payload a kind leaves unset
  // stays default, as a copying sink expects.
  trace::StreamEvent ticket_event;
  ticket_event.kind = trace::StreamEventKind::kTicket;
  trace::StreamEvent usage_event;
  usage_event.kind = trace::StreamEventKind::kUsage;
  std::size_t ti = 0;
  std::size_t ui = 0;
  while (ti < tickets.size() || ui < usage.size()) {
    // Merge by time; on equal `at` the ticket goes first (kind order).
    if (ui == usage.size() ||
        (ti < tickets.size() &&
         tickets[ti].at <= usage_available_at(window, usage[ui]->week))) {
      const TicketKey& k = tickets[ti++];
      const trace::Ticket& t = db.tickets()[k.row];
      ticket_event.at = k.at;
      ticket_event.ticket = t;
      ticket_event.ticket.opened = k.at;
      ticket_event.ticket.closed = k.at + t.repair_time();
      // A background ticket may have no server; the detector ignores
      // non-crash tickets, so the default machine type stands in.
      ticket_event.machine_type = t.server.valid()
                                      ? db.server(t.server).type
                                      : trace::StreamEvent{}.machine_type;
      sink.on_event(ticket_event);
    } else {
      const trace::WeeklyUsage& u = *usage[ui++];
      usage_event.at = usage_available_at(window, u.week);
      usage_event.usage = u;
      usage_event.machine_type = db.server(u.server).type;
      sink.on_event(usage_event);
    }
  }
  sink.finish(stream_end);
  obs::counter("fa.detect.stream.emitted").add(tickets.size() + usage.size());
}

}  // namespace fa::sim
