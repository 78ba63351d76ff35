#include "src/trace/database.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <type_traits>

#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::trace {
namespace {

// CSR offsets over `servers` dense ids for the rows `keep` accepts:
// server s owns [offsets[s], offsets[s + 1]) of them, in row order. Every
// kept row's server must be a valid id below `servers` (finalize checks
// this first).
template <typename Row, typename Keep>
std::vector<std::size_t> server_offsets(const std::vector<Row>& rows,
                                        std::size_t servers, Keep keep) {
  std::vector<std::size_t> offsets(servers + 1, 0);
  for (const Row& row : rows) {
    if (keep(row)) ++offsets[static_cast<std::size_t>(row.server.value) + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

// Rows per parallel task of finalize's monitoring-table scan. A fixed
// block size keeps the task count, and so the pool's work counts,
// independent of the thread count.
constexpr std::size_t kScanBlock = std::size_t{1} << 16;

// What one pass over a monitoring table found.
struct TableScan {
  // Message of the lowest-index row that fails validation, or null.
  const char* error = nullptr;
  // Whether the rows are in (server, key) order.
  bool sorted = true;
  // (row, server) of each row whose server differs from the previous
  // row's, in row order; complete only when `sorted`.
  std::vector<std::pair<std::size_t, std::int32_t>> starts;
};

// One pass over `rows` in fixed blocks on the global pool: validates each
// row with `check` (its failure message, or null), tests the (server, key)
// order against the previous row, and records where each server's rows
// start. The result is the same at any thread count.
template <typename Row, typename Key, typename Check>
TableScan scan_rows(const std::vector<Row>& rows, Key key, Check check) {
  const std::size_t blocks = (rows.size() + kScanBlock - 1) / kScanBlock;
  std::vector<TableScan> parts(blocks);
  parallel_for(blocks, [&](std::size_t block) {
    TableScan& part = parts[block];
    const std::size_t end = std::min(rows.size(), (block + 1) * kScanBlock);
    for (std::size_t i = block * kScanBlock; i < end; ++i) {
      const Row& row = rows[i];
      if (const char* error = check(row)) {
        part.error = error;
        return;
      }
      if (i > 0 && row.server == rows[i - 1].server) {
        if (key(row) < key(rows[i - 1])) part.sorted = false;
        continue;
      }
      if (i > 0 && row.server < rows[i - 1].server) part.sorted = false;
      if (part.sorted) part.starts.emplace_back(i, row.server.value);
    }
  });
  TableScan scan;
  for (TableScan& part : parts) {
    if (part.error != nullptr) {
      scan.error = part.error;
      break;
    }
    scan.sorted = scan.sorted && part.sorted;
    if (scan.sorted) {
      scan.starts.insert(scan.starts.end(), part.starts.begin(),
                         part.starts.end());
    }
  }
  return scan;
}

// Returns the CSR offsets over `servers` dense ids of `rows`, which `scan`
// validated, sorting them by (server, key) first if `scan` found them out
// of order. Loaders and the simulator emit rows in order, so the serial
// sort is for other input only.
template <typename Row, typename Key>
std::vector<std::size_t> index_by_server(std::vector<Row>& rows,
                                         const TableScan& scan,
                                         std::size_t servers, Key key) {
  if (!scan.sorted) {
    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      if (a.server != b.server) return a.server < b.server;
      return key(a) < key(b);
    });
    return server_offsets(rows, servers, [](const Row&) { return true; });
  }
  // A server's range starts where its first row does; servers without
  // rows get an empty range at the next server's start, or at the end.
  std::vector<std::size_t> offsets(servers + 1, rows.size());
  std::size_t next = 0;
  for (const auto& [row, server] : scan.starts) {
    for (; next <= static_cast<std::size_t>(server); ++next) {
      offsets[next] = row;
    }
  }
  return offsets;
}

// Server s's entries of a CSR index, or an empty range for an invalid or
// out-of-range id.
std::pair<std::size_t, std::size_t> csr_range(
    const std::vector<std::size_t>& offsets, ServerId id) {
  const auto s = static_cast<std::size_t>(id.value);
  if (!id.valid() || s + 1 >= offsets.size()) return {0, 0};
  return {offsets[s], offsets[s + 1]};
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
  // The monitoring tables are validated, order-checked and indexed in one
  // parallel pass each; a failure throws the message the first failing row
  // of the first failing table gives, as a serial row loop would.
  const auto dangling = [&](ServerId id) {
    return !id.valid() || id.value >= n_servers;
  };
  const auto week = [](const WeeklyUsage& u) { return u.week; };
  const auto at = [](const PowerEvent& e) { return e.at; };
  const auto month = [](const MonthlySnapshot& s) { return s.month; };
  const TableScan usage =
      scan_rows(weekly_usage_, week, [&](const WeeklyUsage& u) {
        return dangling(u.server)
                   ? "TraceDatabase::finalize: dangling server id in usage"
                   : nullptr;
      });
  require(usage.error == nullptr, usage.error);
  const TableScan power = scan_rows(power_events_, at, [&](const PowerEvent& e) {
    return dangling(e.server)
               ? "TraceDatabase::finalize: dangling server id in power"
               : nullptr;
  });
  require(power.error == nullptr, power.error);
  const TableScan snapshots =
      scan_rows(snapshots_, month, [&](const MonthlySnapshot& s) {
        if (dangling(s.server)) {
          return "TraceDatabase::finalize: dangling server id in snapshot";
        }
        return s.consolidation >= 1
                   ? nullptr
                   : "TraceDatabase::finalize: consolidation must be >= 1";
      });
  require(snapshots.error == nullptr, snapshots.error);

  const std::size_t servers = servers_.size();
  usage_offsets_ = index_by_server(weekly_usage_, usage, servers, week);
  power_offsets_ = index_by_server(power_events_, power, servers, at);
  snapshot_offsets_ = index_by_server(snapshots_, snapshots, servers, month);

  crash_offsets_ = server_offsets(tickets_, servers,
                                  [](const Ticket& t) { return t.is_crash; });
  crash_index_.resize(crash_offsets_[servers]);
  std::vector<std::size_t> next(crash_offsets_.begin(),
                                crash_offsets_.end() - 1);
  for (std::size_t i = 0; i < tickets_.size(); ++i) {
    const Ticket& t = tickets_[i];
    if (!t.is_crash) continue;
    crash_index_[next[static_cast<std::size_t>(t.server.value)]++] = i;
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
  const auto [begin, end] = csr_range(crash_offsets_, id);
  std::vector<const Ticket*> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    out.push_back(&tickets_[crash_index_[i]]);
  }
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
  const auto [begin, end] = csr_range(usage_offsets_, id);
  return {weekly_usage_.data() + begin, end - begin};
}

std::span<const PowerEvent> TraceDatabase::power_events_for(
    ServerId id) const {
  require_finalized();
  const auto [begin, end] = csr_range(power_offsets_, id);
  return {power_events_.data() + begin, end - begin};
}

std::span<const MonthlySnapshot> TraceDatabase::snapshots_for(
    ServerId id) const {
  require_finalized();
  const auto [begin, end] = csr_range(snapshot_offsets_, id);
  return {snapshots_.data() + begin, end - begin};
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
