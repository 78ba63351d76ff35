#include "src/trace/fingerprint.h"

#include <cstddef>
#include <optional>
#include <string>

namespace fa::trace {
namespace {

class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    bytes(&value, sizeof(value));
  }
  template <typename T>
  void add(const std::optional<T>& value) {
    add(value.has_value());
    if (value) add(*value);
  }
  void add(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t fingerprint(const TraceDatabase& db) {
  Digest d;
  for (const ObservationWindow& w :
       {db.window(), db.monitoring(), db.onoff_tracking()}) {
    d.add(w.begin);
    d.add(w.end);
  }
  for (const ServerRecord& s : db.servers()) {
    d.add(s.id.value);
    d.add(s.type);
    d.add(s.subsystem);
    d.add(s.cpu_count);
    d.add(s.memory_gb);
    d.add(s.disk_gb);
    d.add(s.disk_count);
    d.add(s.host_box.value);
    d.add(s.first_record);
    for (const WeeklyUsage& u : db.weekly_usage_for(s.id)) {
      d.add(u.server.value);
      d.add(u.week);
      d.add(u.cpu_util);
      d.add(u.mem_util);
      d.add(u.disk_util);
      d.add(u.net_kbps);
    }
    for (const PowerEvent& e : db.power_events_for(s.id)) {
      d.add(e.server.value);
      d.add(e.at);
      d.add(e.powered_on);
    }
    for (const MonthlySnapshot& m : db.snapshots_for(s.id)) {
      d.add(m.server.value);
      d.add(m.month);
      d.add(m.box.value);
      d.add(m.consolidation);
    }
  }
  for (const Ticket& t : db.tickets()) {
    d.add(t.id.value);
    d.add(t.incident.value);
    d.add(t.server.value);
    d.add(t.subsystem);
    d.add(t.is_crash);
    d.add(t.true_class);
    d.add(t.opened);
    d.add(t.closed);
    d.add(t.description);
    d.add(t.resolution);
  }
  return d.value();
}

}  // namespace fa::trace
