// Content digests the benchmark's correctness checks compare: a 64-bit
// order-sensitive hash over every field of a value, doubles by bit pattern,
// so two digests agree only when the outputs are bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/trace/database.h"

namespace fa::perfbench {

class Fingerprint {
 public:
  void u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);
  void f64s(const std::vector<double>& xs) {
    u64(xs.size());
    for (double x : xs) f64(x);
  }
  template <typename T>
  void opt(const std::optional<T>& v) {
    u64(v.has_value());
    if (!v) return;
    if constexpr (std::is_floating_point_v<T>) {
      f64(*v);
    } else {
      i64(static_cast<std::int64_t>(*v));
    }
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// One digest per table of a finalized trace, plus the observation windows.
// The servers and tickets tables cover every column (free text included);
// usage, power and snapshot rows are visited per server in the database's
// (server, time) order, which covers every row exactly once.
struct DatabaseDigest {
  static constexpr std::array<const char*, 6> kParts = {
      "windows", "servers", "tickets", "weekly_usage", "power_events",
      "snapshots"};
  std::array<std::uint64_t, kParts.size()> parts{};

  bool operator==(const DatabaseDigest&) const = default;
  // Comma-separated names of the parts that differ from `other`.
  std::string diff(const DatabaseDigest& other) const;
};

DatabaseDigest digest_database(const trace::TraceDatabase& db);

// Number of weekly-usage rows in a finalized trace.
std::size_t usage_row_count(const trace::TraceDatabase& db);

}  // namespace fa::perfbench
