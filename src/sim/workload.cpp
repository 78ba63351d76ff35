#include "src/sim/workload.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/sim/block_pipeline.h"
#include "src/sim/seed_streams.h"
#include "src/util/error.h"

namespace fa::sim {
namespace {

double clamp_util(double v) { return std::clamp(v, 0.1, 100.0); }

// Servers per render block; render_and_commit holds two blocks at a time.
// Streams are keyed by server id: block size cannot affect output.
constexpr std::size_t kServerBlock = 2048;

}  // namespace

void emit_weekly_usage(const SimulationConfig& config, const Fleet& fleet,
                       trace::TraceWriter& writer) {
  const ObservationWindow year = ticket_window();
  const int weeks = year.week_count();
  // One stream per server: usage synthesis is embarrassingly parallel, and
  // rows are committed in server order so the table layout is unchanged.
  render_and_commit<std::vector<trace::WeeklyUsage>>(
      fleet.servers.size(), kServerBlock,
      [&](std::vector<trace::WeeklyUsage>& rows, std::size_t i) {
        const trace::ServerRecord& s = fleet.servers[i];
        const MachineProfile& p = fleet.profiles[i];
        rows.clear();
        Rng rng = stream_rng(config.seed, SeedStream::kWeeklyUsage,
                             static_cast<std::uint64_t>(s.id.value));
        for (int w = 0; w < weeks; ++w) {
          const TimePoint week_end =
              year.begin + static_cast<Duration>(w + 1) * kMinutesPerWeek;
          if (s.first_record >= week_end) continue;  // VM not yet visible
          trace::WeeklyUsage u;
          u.server = s.id;
          u.week = w;
          u.cpu_util = clamp_util(
              p.mean_cpu_util + rng.normal(0.0, config.usage_weekly_jitter));
          u.mem_util = clamp_util(
              p.mean_mem_util + rng.normal(0.0, config.usage_weekly_jitter));
          if (p.mean_disk_util) {
            u.disk_util = clamp_util(
                *p.mean_disk_util +
                rng.normal(0.0, config.usage_weekly_jitter));
          }
          if (p.mean_net_kbps) {
            // Network volume jitter is multiplicative (volumes span
            // decades).
            u.net_kbps = *p.mean_net_kbps * std::exp(rng.normal(0.0, 0.25));
          }
          rows.push_back(u);
        }
      },
      [&](std::span<std::vector<trace::WeeklyUsage>> block) {
        for (const auto& rows : block) {
          for (const trace::WeeklyUsage& u : rows) writer.add_weekly_usage(u);
        }
      });
}

void emit_monthly_snapshots(const Fleet& fleet, trace::TraceWriter& writer) {
  const ObservationWindow year = ticket_window();
  const int months = year.month_count();
  for (std::size_t i = 0; i < fleet.servers.size(); ++i) {
    const trace::ServerRecord& s = fleet.servers[i];
    if (s.type != trace::MachineType::kVirtual) continue;
    const MachineProfile& p = fleet.profiles[i];
    for (int m = 0; m < months; ++m) {
      const TimePoint month_end =
          year.begin + static_cast<Duration>(m + 1) * kMinutesPerMonth;
      if (s.first_record >= month_end) continue;
      trace::MonthlySnapshot snap;
      snap.server = s.id;
      snap.month = m;
      snap.box = s.host_box;
      snap.consolidation = p.consolidation;
      writer.add_monthly_snapshot(snap);
    }
  }
}

void emit_power_events(const SimulationConfig& config, const Fleet& fleet,
                       trace::TraceWriter& writer) {
  const ObservationWindow window = onoff_window();
  const double window_months =
      static_cast<double>(window.length()) / kMinutesPerMonth;
  render_and_commit<std::vector<trace::PowerEvent>>(
      fleet.servers.size(), kServerBlock,
      [&](std::vector<trace::PowerEvent>& rows, std::size_t i) {
        rows.clear();
        const trace::ServerRecord& s = fleet.servers[i];
        if (s.type != trace::MachineType::kVirtual) return;
        const MachineProfile& p = fleet.profiles[i];
        if (p.onoff_per_month <= 0.0) return;
        Rng rng = stream_rng(config.seed, SeedStream::kPowerEvents,
                             static_cast<std::uint64_t>(s.id.value));

        const auto cycles = rng.poisson(p.onoff_per_month * window_months);
        if (cycles == 0) return;

        // Draw cycle start times, sort, and emit non-overlapping off/on
        // pairs.
        std::vector<TimePoint> starts;
        starts.reserve(cycles);
        for (std::uint64_t c = 0; c < cycles; ++c) {
          starts.push_back(
              window.begin +
              static_cast<Duration>(rng.uniform(
                  0.0, static_cast<double>(window.length() - 1))));
        }
        std::sort(starts.begin(), starts.end());
        TimePoint busy_until = window.begin;
        for (TimePoint off_at : starts) {
          if (off_at < busy_until) continue;  // overlapping cycle; drop
          // Downtime: LogNormal around 2 hours.
          const double down_minutes = 120.0 * std::exp(rng.normal(0.0, 1.0));
          const TimePoint on_at =
              off_at + std::max<Duration>(kMinutesPerSample,
                                          static_cast<Duration>(down_minutes));
          if (on_at >= window.end) break;
          rows.push_back({s.id, off_at, false});
          rows.push_back({s.id, on_at, true});
          busy_until = on_at;
        }
      },
      [&](std::span<std::vector<trace::PowerEvent>> block) {
        for (const auto& rows : block) {
          for (const trace::PowerEvent& e : rows) writer.add_power_event(e);
        }
      });
}

}  // namespace fa::sim
