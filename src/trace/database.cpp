#include "src/trace/database.h"

#include <algorithm>
#include <map>
#include <type_traits>

#include "src/util/error.h"

namespace fa::trace {
namespace {

template <typename Row, typename Key>
std::unordered_map<ServerId, std::pair<std::size_t, std::size_t>> build_ranges(
    std::vector<Row>& rows, Key key) {
  const auto less = [&](const Row& a, const Row& b) {
    if (a.server != b.server) return a.server < b.server;
    return key(a) < key(b);
  };
  // Loaders and the simulator emit rows grouped by server already; skip the
  // sort when the order holds.
  if (!std::is_sorted(rows.begin(), rows.end(), less)) {
    std::sort(rows.begin(), rows.end(), less);
  }
  std::unordered_map<ServerId, std::pair<std::size_t, std::size_t>> ranges;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= rows.size(); ++i) {
    if (i == rows.size() || (i > begin && rows[i].server != rows[begin].server)) {
      if (i > begin) ranges[rows[begin].server] = {begin, i};
      begin = i;
    }
  }
  return ranges;
}

}  // namespace

TraceDatabase::TraceDatabase()
    : window_(ticket_window()),
      monitoring_(monitoring_window()),
      onoff_(onoff_window()) {}

void TraceDatabase::set_windows(ObservationWindow ticket,
                                ObservationWindow monitoring,
                                ObservationWindow onoff_tracking) {
  require(!finalized_, "TraceDatabase::set_windows: called after finalize");
  require(ticket.begin < ticket.end && monitoring.begin < monitoring.end &&
              onoff_tracking.begin < onoff_tracking.end,
          "TraceDatabase::set_windows: empty window");
  require(monitoring.begin <= ticket.begin && ticket.end <= monitoring.end,
          "TraceDatabase::set_windows: ticket window outside monitoring "
          "coverage");
  require(ticket.begin <= onoff_tracking.begin &&
              onoff_tracking.end <= ticket.end,
          "TraceDatabase::set_windows: on/off window outside ticket window");
  window_ = ticket;
  monitoring_ = monitoring;
  onoff_ = onoff_tracking;
}

ServerId TraceDatabase::add_server(ServerRecord record) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  record.id = ServerId{static_cast<std::int32_t>(servers_.size())};
  servers_.push_back(std::move(record));
  return servers_.back().id;
}

TicketId TraceDatabase::add_ticket(Ticket ticket) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  ticket.id = TicketId{static_cast<std::int32_t>(tickets_.size())};
  tickets_.push_back(std::move(ticket));
  return tickets_.back().id;
}

void TraceDatabase::add_weekly_usage(WeeklyUsage usage) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  weekly_usage_.push_back(usage);
}

void TraceDatabase::add_power_event(PowerEvent event) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  power_events_.push_back(event);
}

void TraceDatabase::add_monthly_snapshot(MonthlySnapshot snapshot) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  snapshots_.push_back(snapshot);
}

template <typename Row>
std::vector<Row>& TraceDatabase::rows_of() {
  if constexpr (std::is_same_v<Row, ServerRecord>) {
    return servers_;
  } else if constexpr (std::is_same_v<Row, Ticket>) {
    return tickets_;
  } else if constexpr (std::is_same_v<Row, WeeklyUsage>) {
    return weekly_usage_;
  } else if constexpr (std::is_same_v<Row, PowerEvent>) {
    return power_events_;
  } else {
    static_assert(std::is_same_v<Row, MonthlySnapshot>);
    return snapshots_;
  }
}

template <typename Row>
std::span<Row> TraceDatabase::append_rows(std::size_t count) {
  require(!finalized_, "TraceDatabase: mutation after finalize");
  std::vector<Row>& rows = rows_of<Row>();
  const std::size_t first = rows.size();
  rows.resize(first + count);
  if constexpr (requires(Row row) { row.id.value; }) {
    for (std::size_t i = first; i < rows.size(); ++i) {
      rows[i].id.value = static_cast<std::int32_t>(i);
    }
  }
  return {rows.data() + first, count};
}

template std::span<ServerRecord> TraceDatabase::append_rows(std::size_t);
template std::span<Ticket> TraceDatabase::append_rows(std::size_t);
template std::span<WeeklyUsage> TraceDatabase::append_rows(std::size_t);
template std::span<PowerEvent> TraceDatabase::append_rows(std::size_t);
template std::span<MonthlySnapshot> TraceDatabase::append_rows(std::size_t);

IncidentId TraceDatabase::new_incident() {
  return IncidentId{next_incident_++};
}

void TraceDatabase::finalize() {
  require(!finalized_, "TraceDatabase: finalize called twice");
  const auto n_servers = static_cast<std::int32_t>(servers_.size());
  const auto check_server = [&](ServerId id, const char* what) {
    require(id.valid() && id.value < n_servers, [&] {
      return std::string("TraceDatabase::finalize: dangling server id in ") +
             what;
    });
  };
  for (const Ticket& t : tickets_) {
    // A background ticket may have no server (sanitize clears a dangling
    // reference and keeps the ticket); a server it does name must exist.
    if (t.is_crash || t.server.valid()) check_server(t.server, "ticket");
    if (t.is_crash) {
      require(t.incident.valid(),
              "TraceDatabase::finalize: crash ticket without incident");
    }
    require(t.closed >= t.opened,
            "TraceDatabase::finalize: ticket closed before opened");
  }
  for (const WeeklyUsage& u : weekly_usage_) check_server(u.server, "usage");
  for (const PowerEvent& e : power_events_) check_server(e.server, "power");
  for (const MonthlySnapshot& s : snapshots_) {
    check_server(s.server, "snapshot");
    require(s.consolidation >= 1,
            "TraceDatabase::finalize: consolidation must be >= 1");
  }

  usage_ranges_ =
      build_ranges(weekly_usage_, [](const WeeklyUsage& u) { return u.week; });
  power_ranges_ =
      build_ranges(power_events_, [](const PowerEvent& e) { return e.at; });
  snapshot_ranges_ = build_ranges(
      snapshots_, [](const MonthlySnapshot& s) { return s.month; });

  crash_by_server_.clear();
  for (std::size_t i = 0; i < tickets_.size(); ++i) {
    if (tickets_[i].is_crash) {
      crash_by_server_[tickets_[i].server].push_back(i);
    }
  }
  finalized_ = true;
}

void TraceDatabase::require_finalized() const {
  require(finalized_, "TraceDatabase: query before finalize");
}

const ServerRecord& TraceDatabase::server(ServerId id) const {
  require(id.valid() && static_cast<std::size_t>(id.value) < servers_.size(),
          "TraceDatabase::server: invalid id");
  return servers_[static_cast<std::size_t>(id.value)];
}

const Ticket& TraceDatabase::ticket(TicketId id) const {
  require(id.valid() && static_cast<std::size_t>(id.value) < tickets_.size(),
          "TraceDatabase::ticket: invalid id");
  return tickets_[static_cast<std::size_t>(id.value)];
}

std::vector<const Ticket*> TraceDatabase::crash_tickets() const {
  require_finalized();
  std::vector<const Ticket*> out;
  for (const Ticket& t : tickets_) {
    if (t.is_crash) out.push_back(&t);
  }
  return out;
}

std::vector<const Ticket*> TraceDatabase::crash_tickets_for(
    ServerId id) const {
  require_finalized();
  std::vector<const Ticket*> out;
  const auto it = crash_by_server_.find(id);
  if (it == crash_by_server_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t idx : it->second) out.push_back(&tickets_[idx]);
  return out;
}

std::vector<ServerId> TraceDatabase::servers_of(MachineType type) const {
  std::vector<ServerId> out;
  for (const ServerRecord& s : servers_) {
    if (s.type == type) out.push_back(s.id);
  }
  return out;
}

std::vector<ServerId> TraceDatabase::servers_of(MachineType type,
                                                Subsystem sys) const {
  std::vector<ServerId> out;
  for (const ServerRecord& s : servers_) {
    if (s.type == type && s.subsystem == sys) out.push_back(s.id);
  }
  return out;
}

std::size_t TraceDatabase::server_count(MachineType type) const {
  std::size_t n = 0;
  for (const ServerRecord& s : servers_) n += s.type == type;
  return n;
}

std::size_t TraceDatabase::server_count(MachineType type,
                                        Subsystem sys) const {
  std::size_t n = 0;
  for (const ServerRecord& s : servers_) {
    n += s.type == type && s.subsystem == sys;
  }
  return n;
}

std::size_t TraceDatabase::ticket_count(Subsystem sys) const {
  std::size_t n = 0;
  for (const Ticket& t : tickets_) n += t.subsystem == sys;
  return n;
}

std::vector<std::vector<const Ticket*>> TraceDatabase::incidents() const {
  require_finalized();
  std::map<IncidentId, std::vector<const Ticket*>> by_incident;
  for (const Ticket& t : tickets_) {
    if (t.is_crash) by_incident[t.incident].push_back(&t);
  }
  std::vector<std::vector<const Ticket*>> out;
  out.reserve(by_incident.size());
  for (auto& [id, group] : by_incident) out.push_back(std::move(group));
  return out;
}

std::span<const WeeklyUsage> TraceDatabase::weekly_usage_for(
    ServerId id) const {
  require_finalized();
  const auto it = usage_ranges_.find(id);
  if (it == usage_ranges_.end()) return {};
  return {weekly_usage_.data() + it->second.first,
          it->second.second - it->second.first};
}

std::span<const PowerEvent> TraceDatabase::power_events_for(
    ServerId id) const {
  require_finalized();
  const auto it = power_ranges_.find(id);
  if (it == power_ranges_.end()) return {};
  return {power_events_.data() + it->second.first,
          it->second.second - it->second.first};
}

std::span<const MonthlySnapshot> TraceDatabase::snapshots_for(
    ServerId id) const {
  require_finalized();
  const auto it = snapshot_ranges_.find(id);
  if (it == snapshot_ranges_.end()) return {};
  return {snapshots_.data() + it->second.first,
          it->second.second - it->second.first};
}

std::vector<bool> TraceDatabase::power_series_for(
    ServerId id, const ObservationWindow& window) const {
  require_finalized();
  const auto events = power_events_for(id);
  const auto samples =
      static_cast<std::size_t>(window.length() / kMinutesPerSample);
  std::vector<bool> series(samples, true);
  // State before the first event inside the window: last event before it,
  // or "on" when the machine has no events at all.
  bool state = true;
  std::size_t next = 0;
  while (next < events.size() && events[next].at < window.begin) {
    state = events[next].powered_on;
    ++next;
  }
  for (std::size_t i = 0; i < samples; ++i) {
    const TimePoint t =
        window.begin + static_cast<Duration>(i) * kMinutesPerSample;
    while (next < events.size() && events[next].at <= t) {
      state = events[next].powered_on;
      ++next;
    }
    series[i] = state;
  }
  return series;
}

int TraceDatabase::consolidation_at(ServerId id, TimePoint t) const {
  require_finalized();
  const int month = window_.month_index(t);
  if (month < 0) return 0;
  for (const MonthlySnapshot& s : snapshots_for(id)) {
    if (s.month == month) return s.consolidation;
  }
  return 0;
}

}  // namespace fa::trace
