#include "perfbench/fingerprint.h"

#include <cstring>

namespace fa::perfbench {

void Fingerprint::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Fingerprint::str(std::string_view s) {
  u64(s.size());
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, s.data() + i, 8);
    u64(word);
  }
  if (i < s.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, s.data() + i, s.size() - i);
    u64(tail);
  }
}

std::string DatabaseDigest::diff(const DatabaseDigest& other) const {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == other.parts[i]) continue;
    if (!out.empty()) out += ",";
    out += kParts[i];
  }
  return out;
}

DatabaseDigest digest_database(const trace::TraceDatabase& db) {
  DatabaseDigest digest;
  {
    Fingerprint f;
    for (const ObservationWindow* w :
         {&db.window(), &db.monitoring(), &db.onoff_tracking()}) {
      f.i64(w->begin);
      f.i64(w->end);
    }
    digest.parts[0] = f.value();
  }
  Fingerprint servers, usage, power, snapshots;
  for (const trace::ServerRecord& s : db.servers()) {
    servers.i64(s.id.value);
    servers.u64(static_cast<std::uint64_t>(s.type));
    servers.u64(s.subsystem);
    servers.i64(s.cpu_count);
    servers.f64(s.memory_gb);
    servers.opt(s.disk_gb);
    servers.opt(s.disk_count);
    servers.i64(s.host_box.value);
    servers.i64(s.first_record);
    for (const trace::WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      usage.i64(u.server.value);
      usage.i64(u.week);
      usage.f64(u.cpu_util);
      usage.f64(u.mem_util);
      usage.opt(u.disk_util);
      usage.opt(u.net_kbps);
    }
    for (const trace::PowerEvent& e : db.power_events_for(s.id)) {
      power.i64(e.server.value);
      power.i64(e.at);
      power.u64(e.powered_on);
    }
    for (const trace::MonthlySnapshot& m : db.snapshots_for(s.id)) {
      snapshots.i64(m.server.value);
      snapshots.i64(m.month);
      snapshots.i64(m.box.value);
      snapshots.i64(m.consolidation);
    }
  }
  Fingerprint tickets;
  for (const trace::Ticket& t : db.tickets()) {
    tickets.i64(t.id.value);
    tickets.i64(t.incident.value);
    tickets.i64(t.server.value);
    tickets.u64(t.subsystem);
    tickets.u64(t.is_crash);
    tickets.u64(static_cast<std::uint64_t>(t.true_class));
    tickets.i64(t.opened);
    tickets.i64(t.closed);
    tickets.str(t.description);
    tickets.str(t.resolution);
  }
  digest.parts[1] = servers.value();
  digest.parts[2] = tickets.value();
  digest.parts[3] = usage.value();
  digest.parts[4] = power.value();
  digest.parts[5] = snapshots.value();
  return digest;
}

std::size_t usage_row_count(const trace::TraceDatabase& db) {
  std::size_t rows = 0;
  for (const trace::ServerRecord& s : db.servers()) {
    rows += db.weekly_usage_for(s.id).size();
  }
  return rows;
}

}  // namespace fa::perfbench
