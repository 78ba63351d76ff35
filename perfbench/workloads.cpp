#include "perfbench/workloads.h"

#include <malloc.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "perfbench/fingerprint.h"
#include "src/analysis/age.h"
#include "src/analysis/capacity_usage.h"
#include "src/analysis/failure_rates.h"
#include "src/analysis/interfailure.h"
#include "src/analysis/management.h"
#include "src/analysis/pipeline.h"
#include "src/analysis/recurrence.h"
#include "src/analysis/reliability.h"
#include "src/analysis/repair_times.h"
#include "src/analysis/spatial.h"
#include "src/analysis/transitions.h"
#include "src/detect/detector.h"
#include "src/detect/scoring.h"
#include "src/obs/span.h"
#include "src/sim/config.h"
#include "src/sim/simulator.h"
#include "src/sim/stream.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/stats/fitting.h"
#include "src/stats/histogram.h"
#include "src/trace/columnar_io.h"
#include "src/trace/trace_writer.h"
#include "src/util/rng.h"

namespace fa::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Times one operation's calls and tracks their peak resident memory: memory
// freed earlier goes back to the kernel first, then the kernel's high-water
// mark restarts from the current RSS (Linux clear_refs). Without that reset
// VmHWM would still hold the set-up's peak, so a host that refuses it ends
// the run.
class TimedRegion {
 public:
  TimedRegion() {
    malloc_trim(0);
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5" << std::flush;
    if (!clear_refs) {
      throw MeasurementError(
          "cannot reset the peak-memory mark (/proc/self/clear_refs)");
    }
    start_ = Clock::now();
  }

  void stop(OpResult& r) const {
    r.seconds = std::chrono::duration<double>(Clock::now() - start_).count();
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        r.peak_rss_mb = std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    if (r.peak_rss_mb <= 0.0) {
      throw MeasurementError("no VmHWM line in /proc/self/status");
    }
  }

 private:
  Clock::time_point start_;
};

// Keeps a correctness check out of the traced operation's counters and
// spans: observability is off while it lives.
class ObsPause {
 public:
  ObsPause() : was_enabled_(obs::enabled()) { obs::set_enabled(false); }
  ~ObsPause() { obs::set_enabled(was_enabled_); }
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool was_enabled_;
};

constexpr trace::MachineType kTypes[] = {trace::MachineType::kPhysical,
                                         trace::MachineType::kVirtual};

// ---- digests of analysis results ----

void add(Fingerprint& f, const stats::Summary& s) {
  f.u64(s.count);
  for (double v : {s.mean, s.median, s.p25, s.p75, s.min, s.max, s.stddev}) {
    f.f64(v);
  }
}

void add(Fingerprint& f, const stats::FitResult& r) {
  f.str(r.dist->name());
  f.str(r.dist->describe());
  f.f64(r.dist->mean());
  f.f64(r.dist->variance());
  f.f64(r.log_likelihood);
  f.f64(r.aic);
  f.f64(r.ks_statistic);
}

void add(Fingerprint& f, const analysis::BinnedRates& b) {
  f.u64(b.spec.bin_count());
  for (std::size_t i = 0; i < b.spec.bin_count(); ++i) {
    f.f64(b.spec.lower_edge(i));
    f.f64(b.spec.upper_edge(i));
  }
  for (std::size_t v : b.population) f.u64(v);
  for (std::size_t v : b.failure_count) f.u64(v);
  f.f64s(b.overall_rate);
  for (const stats::Summary& s : b.weekly_summary) add(f, s);
}

void add(Fingerprint& f, const analysis::IncidentTypeBreakdown& b) {
  f.f64(b.zero);
  f.f64(b.one);
  f.f64(b.two_or_more);
}

template <typename T, std::size_t R, std::size_t C>
void add(Fingerprint& f, const std::array<std::array<T, C>, R>& table) {
  for (const auto& row : table) {
    for (const T& v : row) {
      if constexpr (std::is_floating_point_v<T>) {
        f.f64(v);
      } else {
        f.i64(static_cast<std::int64_t>(v));
      }
    }
  }
}

// ---- the paper report ----

// Every table and figure of the paper, in report order; part 0 is the
// crash extraction + classification pipeline they all consume.
constexpr std::array<const char*, 14> kReportParts = {
    "pipeline", "population", "classes",    "failure_rates", "interfailure",
    "repair",   "recurrence", "spatial",    "age",           "capacity",
    "usage",    "management", "reliability", "transitions"};
using ReportDigest = std::array<std::uint64_t, kReportParts.size()>;

std::string report_diff(const ReportDigest& got, const ReportDigest& want) {
  std::string out;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    out += out.empty() ? "analysis results differ: " : ",";
    out += kReportParts[i];
  }
  return out;
}

// Runs analysis `part` under its bench span. The digest is folded in inside
// the span; hashing the (small) results costs microseconds.
template <typename Fn>
void report_part(ReportDigest& out, std::size_t part, Fn&& fn) {
  obs::Span span(std::string("bench.analysis.") + kReportParts[part]);
  Fingerprint f;
  fn(f);
  out[part] = f.value();
}

ReportDigest run_report(const trace::TraceDatabase& db, std::uint64_t seed) {
  using analysis::Granularity;
  using analysis::Scope;
  ReportDigest out{};

  std::optional<analysis::AnalysisPipeline> built;
  {
    obs::Span span("bench.analysis.pipeline");
    built.emplace(db);
  }
  const analysis::AnalysisPipeline& pipeline = *built;
  const std::vector<const trace::Ticket*>& failures = pipeline.failures();
  const analysis::ClassLookup class_of = pipeline.class_lookup();
  {
    Fingerprint f;
    for (const trace::Ticket* t : failures) f.i64(t->id.value);
    const analysis::ClassificationResult& c = pipeline.classification();
    for (trace::FailureClass cls : c.predicted) f.u64(static_cast<std::uint64_t>(cls));
    f.f64(c.accuracy);
    add(f, c.confusion);
    f.f64(c.clustering.inertia);
    f.i64(c.clustering.iterations);
    for (int a : c.clustering.assignment) f.i64(a);
    out[0] = f.value();
  }

  // Table II: servers, tickets and crash tickets per subsystem and type.
  report_part(out, 1, [&](Fingerprint& f) {
    std::array<std::array<std::uint64_t, trace::kMachineTypeCount>,
               trace::kSubsystemCount>
        crashes{};
    for (const trace::Ticket* t : failures) {
      ++crashes[t->subsystem]
               [static_cast<std::size_t>(db.server(t->server).type)];
    }
    for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
      for (trace::MachineType type : kTypes) f.u64(db.server_count(type, s));
      f.u64(db.ticket_count(s));
    }
    add(f, crashes);
  });

  // Fig. 1: predicted failure-class mix per subsystem.
  report_part(out, 2, [&](Fingerprint& f) {
    std::array<std::array<std::uint64_t, trace::kFailureClassCount>,
               trace::kSubsystemCount>
        counts{};
    for (const trace::Ticket* t : failures) {
      ++counts[t->subsystem][static_cast<std::size_t>(class_of(*t))];
    }
    add(f, counts);
    f.f64(pipeline.classification().accuracy);
  });

  // Fig. 2: weekly failure rates per type and subsystem, with a bootstrap
  // confidence interval of each type's mean rate.
  report_part(out, 3, [&](Fingerprint& f) {
    Rng rng(seed);
    for (trace::MachineType type : kTypes) {
      const Scope all{type, std::nullopt};
      add(f, analysis::failure_rate_summary(db, failures, all,
                                            Granularity::kWeekly));
      for (trace::Subsystem s = 0; s < trace::kSubsystemCount; ++s) {
        if (db.server_count(type, s) == 0) continue;
        add(f, analysis::failure_rate_summary(db, failures, {type, s},
                                              Granularity::kWeekly));
      }
      const std::vector<double> series = analysis::failure_rate_series(
          db, failures, all, Granularity::kWeekly);
      obs::Span span("bench.stats.bootstrap");
      const stats::BootstrapInterval ci = stats::bootstrap_ci(
          series, [](std::span<const double> xs) { return stats::mean(xs); },
          rng);
      f.f64(ci.point);
      f.f64(ci.lo);
      f.f64(ci.hi);
    }
  });

  // Fig. 3 + Table III: inter-failure times, distribution fits, the VM
  // failure census, and per-class operator / per-server gaps.
  report_part(out, 4, [&](Fingerprint& f) {
    for (trace::MachineType type : kTypes) {
      const std::vector<double> gaps = analysis::per_server_interfailure_days(
          db, failures, {type, std::nullopt});
      f.f64s(gaps);
      obs::Span span("bench.stats.fit");
      for (const stats::FitResult& fit : stats::fit_candidates(gaps)) {
        add(f, fit);
      }
    }
    const analysis::FailureCensus census = analysis::failure_census(
        db, failures, {trace::MachineType::kVirtual, std::nullopt});
    f.u64(census.servers);
    f.u64(census.failing_servers);
    f.u64(census.single_failure_servers);
    for (trace::FailureClass c : trace::kClassifiedFailureClasses) {
      f.f64s(analysis::operator_interfailure_days(failures, c, class_of));
      f.f64s(analysis::per_server_interfailure_days(db, failures, {}, c,
                                                    class_of));
    }
  });

  // Fig. 4 + Table IV: repair times, fits, and per-class repair times.
  report_part(out, 5, [&](Fingerprint& f) {
    for (trace::MachineType type : kTypes) {
      const std::vector<double> hours =
          analysis::repair_hours(db, failures, {type, std::nullopt});
      f.f64s(hours);
      obs::Span span("bench.stats.fit");
      for (const stats::FitResult& fit : stats::fit_candidates(hours)) {
        add(f, fit);
      }
    }
    for (trace::FailureClass c : trace::kClassifiedFailureClasses) {
      f.f64s(analysis::repair_hours(db, failures, {}, c, class_of));
    }
  });

  // Fig. 5 + Table V: recurrent vs random failure probabilities.
  report_part(out, 6, [&](Fingerprint& f) {
    for (trace::MachineType type : kTypes) {
      for (Duration window :
           {kMinutesPerDay, kMinutesPerWeek, kMinutesPerMonth}) {
        f.f64(analysis::recurrent_probability(db, failures,
                                              {type, std::nullopt}, window));
      }
      for (int s = -1; s < trace::kSubsystemCount; ++s) {
        Scope scope{type, std::nullopt};
        if (s >= 0) {
          scope.subsystem = static_cast<trace::Subsystem>(s);
          if (db.server_count(type, *scope.subsystem) == 0) continue;
        }
        f.f64(analysis::random_failure_probability(db, failures, scope,
                                                   Granularity::kWeekly));
        f.f64(analysis::recurrent_probability(db, failures, scope,
                                              kMinutesPerWeek));
      }
    }
  });

  // Tables VI + VII: spatial dependency of incidents.
  report_part(out, 7, [&](Fingerprint& f) {
    const analysis::SpatialAnalysis s = analysis::analyze_spatial(db, class_of);
    f.u64(s.incident_count);
    add(f, s.all);
    add(f, s.pm_only);
    add(f, s.vm_only);
    for (const analysis::ClassIncidentSize& c : s.by_class) {
      f.f64(c.mean);
      f.i64(c.max);
      f.u64(c.incidents);
    }
    f.i64(s.max_servers_in_incident);
  });

  // Fig. 6: VM age at failure.
  report_part(out, 8, [&](Fingerprint& f) {
    const analysis::AgeAnalysis a = analysis::analyze_vm_age(db, failures);
    f.f64(a.observable_fraction);
    f.f64s(a.failure_age_days);
    f.f64(a.ks_distance_to_uniform);
    f.f64(a.pdf_trend_slope);
    f.f64s(a.binned_pdf);
  });

  // Fig. 7: failure rate against capacity (CPU, memory, disk).
  report_part(out, 9, [&](Fingerprint& f) {
    const Scope pm{trace::MachineType::kPhysical, std::nullopt};
    const Scope vm{trace::MachineType::kVirtual, std::nullopt};
    const analysis::CapacityAttribute cpu = [](const trace::ServerRecord& s) {
      return std::optional<double>(s.cpu_count);
    };
    const analysis::CapacityAttribute memory =
        [](const trace::ServerRecord& s) {
          return std::optional<double>(s.memory_gb);
        };
    const analysis::CapacityAttribute disk_gb =
        [](const trace::ServerRecord& s) { return s.disk_gb; };
    const analysis::CapacityAttribute disk_count =
        [](const trace::ServerRecord& s) {
          return s.disk_count ? std::optional<double>(*s.disk_count)
                              : std::nullopt;
        };
    struct Panel {
      const Scope& scope;
      const analysis::CapacityAttribute& attribute;
      std::vector<double> edges;
    };
    const Panel panels[] = {
        {pm, cpu, {1, 2, 3, 6, 12, 20, 28, 48, 128}},
        {vm, cpu, {1, 2, 3, 6, 16}},
        {pm, memory, {1, 6, 48, 96, 192, 512}},
        {vm, memory, {0.1, 6, 12, 24, 64}},
        {vm, disk_gb, {1, 12, 24, 48, 8192}},
        {vm, disk_count, {1, 2, 3, 4, 5, 6, 7}},
    };
    for (const Panel& p : panels) {
      add(f, analysis::capacity_binned_rates(
                 db, failures, p.scope, p.attribute,
                 stats::BinSpec::from_edges(p.edges)));
    }
  });

  // Fig. 8: failure rate against weekly resource usage.
  report_part(out, 10, [&](Fingerprint& f) {
    const Scope pm{trace::MachineType::kPhysical, std::nullopt};
    const Scope vm{trace::MachineType::kVirtual, std::nullopt};
    const analysis::UsageAttribute cpu = [](const trace::WeeklyUsage& u) {
      return std::optional<double>(u.cpu_util);
    };
    const analysis::UsageAttribute mem = [](const trace::WeeklyUsage& u) {
      return std::optional<double>(u.mem_util);
    };
    const analysis::UsageAttribute disk = [](const trace::WeeklyUsage& u) {
      return u.disk_util;
    };
    const analysis::UsageAttribute net = [](const trace::WeeklyUsage& u) {
      return u.net_kbps;
    };
    const auto util_bins =
        stats::BinSpec::from_edges({0, 10, 20, 30, 50, 70, 100});
    const auto net_bins =
        stats::BinSpec::from_edges({0, 2, 8, 64, 512, 2048, 10000});
    add(f, analysis::usage_binned_rates(db, failures, pm, cpu, util_bins));
    add(f, analysis::usage_binned_rates(db, failures, vm, cpu, util_bins));
    add(f, analysis::usage_binned_rates(db, failures, pm, mem, util_bins));
    add(f, analysis::usage_binned_rates(db, failures, vm, mem, util_bins));
    add(f, analysis::usage_binned_rates(db, failures, vm, disk, util_bins));
    add(f, analysis::usage_binned_rates(db, failures, vm, net, net_bins));
  });

  // Figs. 9 + 10: VM consolidation and on/off frequency.
  report_part(out, 11, [&](Fingerprint& f) {
    add(f, analysis::consolidation_binned_rates(db, failures));
    add(f, analysis::onoff_binned_rates(db, failures));
  });

  // Reliability summary per machine type (MTBF, MTTR, availability, fits).
  report_part(out, 12, [&](Fingerprint& f) {
    for (trace::MachineType type : kTypes) {
      const analysis::ReliabilityReport r =
          analysis::reliability_report(db, failures, {type, std::nullopt});
      f.u64(r.servers);
      f.u64(r.failures);
      f.f64(r.mtbf_days);
      f.opt(r.mean_interfailure_days);
      f.f64(r.mttr_hours);
      f.f64(r.annualized_failure_rate);
      f.f64(r.availability);
      for (const auto* fit : {&r.interfailure_fit, &r.repair_fit}) {
        f.u64(fit->has_value());
        if (*fit) add(f, **fit);
      }
    }
  });

  // Failure-class transitions within a week.
  report_part(out, 13, [&](Fingerprint& f) {
    const analysis::TransitionAnalysis t = analysis::analyze_transitions(
        db, failures, class_of, kMinutesPerWeek);
    add(f, t.counts);
    add(f, t.probability);
    for (double p : t.followup_probability) f.f64(p);
  });
  return out;
}

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

// ---- report_fac: load a .fac and produce the whole paper report ----

class ReportWorkload final : public Workload {
 public:
  ReportWorkload(sim::SimulationConfig config, std::string path)
      : config_(std::move(config)), path_(std::move(path)) {}

  void setup() override {
    const trace::TraceDatabase db = sim::simulate(config_);
    trace::save_columnar(db, path_);
    tickets_ = db.tickets().size();
    reference_ = run_report(db, config_.seed);
  }

  OpResult run_op() override {
    OpResult r;
    std::optional<trace::TraceDatabase> db;
    ReportDigest digest{};
    const TimedRegion timed;
    {
      obs::Span op("bench.op.report_fac");
      {
        obs::Span span("bench.trace.load_columnar");
        db.emplace(trace::load_columnar(path_));
      }
      digest = run_report(*db, config_.seed);
    }
    timed.stop(r);
    const ObsPause pause;
    r.items = db->tickets().size();
    r.failure = report_diff(digest, reference_);
    if (r.failure.empty() && r.items != tickets_) {
      r.failure = "loaded ticket count differs from the simulated trace";
    }
    r.correct = r.failure.empty();
    return r;
  }

  void traced_extras(Metrics& out) override {
    const double bytes = static_cast<double>(file_bytes(path_));
    out["trace.fac_bytes"] = bytes;
    out["fac_bytes_per_ticket"] = bytes / static_cast<double>(tickets_);
  }

 private:
  sim::SimulationConfig config_;
  std::string path_;
  std::size_t tickets_ = 0;
  ReportDigest reference_{};
};

// ---- generate_fac: simulate straight into a .fac ----

class GenerateWorkload final : public Workload {
 public:
  GenerateWorkload(sim::SimulationConfig config, std::string path)
      : config_(std::move(config)), path_(std::move(path)) {}

  void setup() override {
    const trace::TraceDatabase db = sim::simulate(config_);
    reference_ = digest_database(db);
    tickets_ = db.tickets().size();
    usage_rows_ = usage_row_count(db);
  }

  OpResult run_op() override {
    OpResult r;
    const TimedRegion timed;
    {
      obs::Span op("bench.op.generate_fac");
      obs::Span span("bench.sim.simulate_to");
      trace::ColumnarTraceWriter writer(path_);
      sim::simulate_to(config_, writer);
      r.items = writer.ticket_count();
    }
    timed.stop(r);
    const ObsPause pause;
    // The file must load back to exactly the in-memory simulation: every
    // table, every column, free text included.
    const DatabaseDigest got = digest_database(trace::load_columnar(path_));
    if (got != reference_) {
      r.failure = "written trace differs from sim::simulate in: " +
                  got.diff(reference_);
    }
    r.correct = r.failure.empty();
    return r;
  }

  void traced_extras(Metrics& out) override {
    // The op interleaves simulation and columnar writes; split them by
    // simulating into memory, then saving that database.
    const std::string extra_path = path_ + ".split";
    {
      std::optional<trace::TraceDatabase> db;
      {
        obs::Span span("bench.sim.simulate");
        db.emplace(sim::simulate(config_));
      }
      obs::Span span("bench.trace.save_columnar");
      trace::save_columnar(*db, extra_path);
    }
    std::filesystem::remove(extra_path);
    const double bytes = static_cast<double>(file_bytes(path_));
    out["trace.fac_bytes"] = bytes;
    out["fac_bytes_per_ticket"] = bytes / static_cast<double>(tickets_);
    out["sim.usage_rows"] = static_cast<double>(usage_rows_);
  }

 private:
  sim::SimulationConfig config_;
  std::string path_;
  DatabaseDigest reference_;
  std::size_t tickets_ = 0;
  std::size_t usage_rows_ = 0;
};

// ---- watch_stream: closed-loop replay into the online detector ----

class CountingSink final : public trace::StreamSink {
 public:
  void begin(const trace::StreamMeta&) override { events_ = 0; }
  void on_event(const trace::StreamEvent&) override { ++events_; }
  void finish(TimePoint) override {}
  std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

class WatchWorkload final : public Workload {
 public:
  explicit WatchWorkload(sim::SimulationConfig config)
      : config_(std::move(config)) {}

  void setup() override {
    db_.reset();
    db_.emplace(sim::simulate(config_));
    scenario_.shifts = {{db_->window().begin + from_days(180.0), 4.0}};
    CountingSink sink;
    sim::emit_stream(*db_, scenario_, sink);
    emitted_ = sink.events();
    reference_log_.reset();
  }

  OpResult run_op() override {
    OpResult r;
    detect::DetectorOptions options;
    options.tenant = "bench";
    detect::OnlineDetector detector(std::move(options));
    detect::DetectionScore score;
    const TimedRegion timed;
    {
      obs::Span op("bench.op.watch_stream");
      {
        obs::Span span("bench.detect.replay");
        sim::emit_stream(*db_, scenario_, detector);
      }
      obs::Span span("bench.detect.score_alerts");
      score = detect::score_alerts(scenario_.change_points(),
                                   detector.report().alerts);
    }
    timed.stop(r);
    const ObsPause pause;
    const detect::DetectorReport& report = detector.report();
    r.items = report.events;
    std::string log = report.alert_log();
    if (report.events != emitted_) {
      r.failure = "detector saw " + std::to_string(report.events) +
                  " events, the stream emitted " + std::to_string(emitted_);
    } else if (report.late_dropped != 0 || report.duplicates_dropped != 0) {
      r.failure = "in-order replay dropped events";
    } else if (!reference_log_) {
      reference_log_ = std::move(log);
    } else if (log != *reference_log_) {
      r.failure = "alert log differs from the first operation's";
    }
    r.correct = r.failure.empty();
    last_score_ = std::move(score);
    return r;
  }

  void traced_extras(Metrics& out) override {
    CountingSink sink;
    {
      obs::Span span("bench.sim.emit_stream");
      sim::emit_stream(*db_, scenario_, sink);
    }
    out["stream.events"] = static_cast<double>(sink.events());
    out["detect_precision"] = last_score_.precision();
    out["detect_recall"] = last_score_.recall();
    out["detect_latency_days"] = to_days(last_score_.median_latency());
  }

 private:
  sim::SimulationConfig config_;
  std::optional<trace::TraceDatabase> db_;
  sim::StreamScenario scenario_;
  std::uint64_t emitted_ = 0;
  std::optional<std::string> reference_log_;
  detect::DetectionScore last_score_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, double scale,
                                        const std::string& workdir) {
  sim::SimulationConfig config =
      sim::SimulationConfig::paper_defaults().scaled(scale);
  config.seed = seed;
  const std::string fac = workdir + "/" + std::string(name) + ".fac";
  if (name == "report_fac") {
    return std::make_unique<ReportWorkload>(std::move(config), fac);
  }
  if (name == "generate_fac") {
    return std::make_unique<GenerateWorkload>(std::move(config), fac);
  }
  if (name == "watch_stream") {
    return std::make_unique<WatchWorkload>(std::move(config));
  }
  return nullptr;
}

}  // namespace fa::perfbench
