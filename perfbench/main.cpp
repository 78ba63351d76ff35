// fa_perfbench — end-to-end benchmark of the failure-analysis toolkit.
//
//   fa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--scale X] [--workdir DIR] [--trace-out FILE]
//
// Sets the workload up from its seed several times (the median is setup_s),
// then runs operations for S seconds and checks each one's output. With
// --trace 0, observability is off and the end-to-end metrics are reported.
// With --trace 1, half the time runs untraced and half traced (per-layer
// metrics from bench.* spans and the registry's counters, plus a Chrome
// trace), then one operation repeats at 1 worker thread. The last line of
// stdout is the JSON result; nothing is printed there on a fatal error.
#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/stats/simd.h"
#include "src/util/thread_pool.h"

namespace fa::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Reported with --trace 1; a layer the workload leaves idle reads 0.
constexpr MetricDef kPerLayer[] = {
    {"pool.busy_s", "s"},
    {"pool.idle_s", "s"},
    {"pool.items", "count"},
    {"pool.batches", "count"},
    {"pool.batch_items_p50", "count"},
    {"pool.worker_items_skew", "ratio"},
    {"pool.speedup_vs_1t", "ratio"},
    {"trace.load_s", "s"},
    {"trace.chunks_read", "count"},
    {"trace.save_s", "s"},
    {"trace.fac_bytes", "bytes"},
    {"trace.rows_written", "count"},
    {"sim.simulate_s", "s"},
    {"sim.tickets", "count"},
    {"sim.usage_rows", "count"},
    {"sim.emit_s", "s"},
    {"stream.events", "count"},
    {"analysis.pipeline_s", "s"},
    {"analysis.extract_crash_tickets_s", "s"},
    {"analysis.classify_tickets_s", "s"},
    {"analysis.vectorize_s", "s"},
    {"analysis.kmeans_s", "s"},
    {"analysis.crash_tickets", "count"},
    {"analysis.population_s", "s"},
    {"analysis.classes_s", "s"},
    {"analysis.failure_rates_s", "s"},
    {"analysis.interfailure_s", "s"},
    {"analysis.repair_s", "s"},
    {"analysis.recurrence_s", "s"},
    {"analysis.spatial_s", "s"},
    {"analysis.age_s", "s"},
    {"analysis.capacity_s", "s"},
    {"analysis.usage_s", "s"},
    {"analysis.management_s", "s"},
    {"analysis.reliability_s", "s"},
    {"analysis.transitions_s", "s"},
    {"stats.fit_s", "s"},
    {"stats.bootstrap_s", "s"},
    {"kmeans.distances_computed", "count"},
    {"kmeans.distances_pruned", "count"},
    {"kmeans.prune_ratio", "ratio"},
    {"kmeans.iterations", "count"},
    {"text.documents", "count"},
    {"text.vocabulary_terms", "count"},
    {"detect.ingest_s", "s"},
    {"detect.events", "count"},
    {"detect.alerts", "count"},
    {"detect.late_dropped", "count"},
    {"obs.overhead_ratio", "ratio"},
    {"fac_bytes_per_ticket", "bytes"},
    {"detect_latency_days", "days"},
    {"detect_precision", "ratio"},
    {"detect_recall", "ratio"},
};

// Per-layer seconds read from span totals: metric <- span. The bench.*
// spans wrap the benchmark's public calls; the others are the program's own.
constexpr std::pair<const char*, const char*> kSpanSeconds[] = {
    {"trace.load_s", "bench.trace.load_columnar"},
    {"trace.save_s", "bench.trace.save_columnar"},
    {"sim.simulate_s", "bench.sim.simulate"},
    {"sim.emit_s", "bench.sim.emit_stream"},
    {"analysis.pipeline_s", "bench.analysis.pipeline"},
    {"analysis.extract_crash_tickets_s", "analysis.extract_crash_tickets"},
    {"analysis.classify_tickets_s", "analysis.classify_tickets"},
    {"analysis.vectorize_s", "analysis.vectorize"},
    {"analysis.kmeans_s", "analysis.kmeans"},
    {"analysis.population_s", "bench.analysis.population"},
    {"analysis.classes_s", "bench.analysis.classes"},
    {"analysis.failure_rates_s", "bench.analysis.failure_rates"},
    {"analysis.interfailure_s", "bench.analysis.interfailure"},
    {"analysis.repair_s", "bench.analysis.repair"},
    {"analysis.recurrence_s", "bench.analysis.recurrence"},
    {"analysis.spatial_s", "bench.analysis.spatial"},
    {"analysis.age_s", "bench.analysis.age"},
    {"analysis.capacity_s", "bench.analysis.capacity"},
    {"analysis.usage_s", "bench.analysis.usage"},
    {"analysis.management_s", "bench.analysis.management"},
    {"analysis.reliability_s", "bench.analysis.reliability"},
    {"analysis.transitions_s", "bench.analysis.transitions"},
    {"stats.fit_s", "bench.stats.fit"},
    {"stats.bootstrap_s", "bench.stats.bootstrap"},
};

// Per-layer counts read from the registry's counters (summed over labels).
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"pool.items", "fa.pool.items"},
    {"pool.batches", "fa.pool.batches"},
    {"trace.chunks_read", "fa.trace.columnar.chunks_read"},
    {"trace.rows_written", "fa.trace.columnar.rows_written"},
    {"sim.tickets", "fa.sim.tickets"},
    {"stream.events", "fa.detect.stream.emitted"},
    {"analysis.crash_tickets", "fa.analysis.crash_tickets"},
    {"kmeans.distances_computed", "fa.kmeans.distances_computed"},
    {"kmeans.distances_pruned", "fa.kmeans.distances_pruned"},
    {"kmeans.iterations", "fa.kmeans.iterations"},
    {"text.documents", "fa.analysis.vectorized_documents"},
    {"text.vocabulary_terms", "fa.analysis.vocabulary_terms"},
    {"detect.events", "fa.detect.events"},
    {"detect.alerts", "fa.detect.alerts"},
    {"detect.late_dropped", "fa.detect.late_dropped"},
};

constexpr int kSetupRepeats = 3;
constexpr int kMinOps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 4.0;
  std::string workdir = ".bench_work";
  std::string trace_out;  // Chrome trace of the traced run ("" = none)
};

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "fa_perfbench: " << message << "\n";
  std::exit(1);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--scale") {
      a.scale = std::atof(value.c_str());
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      fail("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) fail("--workload and --seed are required");
  if (a.seconds <= 0.0 || a.scale <= 0.0) fail("--seconds and --scale must be > 0");
  return a;
}

// Worker count the benchmark pins every pool to: the CPUs this process may
// run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return ThreadPool::hardware_threads();
}

// Refuses to time an unoptimised build, then prints the stamp every result
// carries.
void stamp(const Args& a, std::size_t nproc) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  fail(std::string("refusing to report timings from an unoptimised build "
                   "(build type ") + FA_BENCH_BUILD_TYPE + ")");
#endif
  utsname host{};
  uname(&host);
  std::cout << "stamp: host=" << host.nodename << " arch=" << host.machine
            << " kernel=" << host.release << " nproc=" << nproc
            << " compiler=\"" << FA_BENCH_COMPILER << "\""
            << " build=" << FA_BENCH_BUILD_TYPE << " NDEBUG=1 optimized=1"
            << " simd=" << stats::simd::dispatch_name()
            << " workload=" << a.workload << " seed=" << a.seed
            << " scale=" << a.scale << " seconds=" << a.seconds
            << " trace=" << a.trace << "\n";
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct OpStats {
  int attempted = 0;
  int failed = 0;
  std::vector<double> seconds;
  double peak_rss_mb = 0.0;  // highest over the operations
};

// Runs one operation, counting it and its correctness; an exception is a
// failed operation, except a MeasurementError, which ends the run.
OpResult run_checked(Workload& w, OpStats& stats) {
  OpResult r;
  try {
    r = w.run_op();
  } catch (const MeasurementError&) {
    throw;
  } catch (const std::exception& e) {
    r.correct = false;
    r.failure = std::string("operation threw: ") + e.what();
  }
  ++stats.attempted;
  std::printf("op %d: %.4f s, %llu items, peak %.1f MB\n", stats.attempted,
              r.seconds, static_cast<unsigned long long>(r.items),
              r.peak_rss_mb);
  if (!r.correct) {
    ++stats.failed;
    std::cerr << "fa_perfbench: operation " << stats.attempted
              << " failed its check: " << r.failure << "\n";
  } else {
    stats.seconds.push_back(r.seconds);
    stats.peak_rss_mb = std::max(stats.peak_rss_mb, r.peak_rss_mb);
  }
  return r;
}

// Runs operations until `budget` seconds have passed and at least kMinOps
// ran; `after_op` sees each result.
template <typename AfterOp>
void run_for(Workload& w, double budget, OpStats& stats, AfterOp&& after_op) {
  const auto start = Clock::now();
  for (int i = 0; i < kMinOps || seconds_since(start) < budget; ++i) {
    after_op(run_checked(w, stats));
  }
}

double counter_sum(const obs::MetricsSnapshot& snap, std::string_view name) {
  double total = 0.0;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == name) total += static_cast<double>(c.value);
  }
  return total;
}

double span_seconds(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::SpanAggregate& s : snap.spans) {
    if (s.name == name) return s.total_ms / 1000.0;
  }
  return 0.0;
}

// Per-layer metrics of one traced operation, from the registry.
Metrics layer_metrics(const obs::MetricsSnapshot& snap) {
  Metrics m;
  for (const auto& [metric, span] : kSpanSeconds) {
    m[metric] = span_seconds(snap, span);
  }
  for (const auto& [metric, counter] : kCounters) {
    m[metric] = counter_sum(snap, counter);
  }
  m["pool.busy_s"] = counter_sum(snap, "fa.pool.worker.busy_us") / 1e6;
  m["pool.idle_s"] = counter_sum(snap, "fa.pool.worker.idle_us") / 1e6;
  double max_items = 0.0, sum_items = 0.0;
  int workers = 0;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name != "fa.pool.worker.items") continue;
    max_items = std::max(max_items, static_cast<double>(c.value));
    sum_items += static_cast<double>(c.value);
    ++workers;
  }
  m["pool.worker_items_skew"] =
      sum_items > 0.0 ? max_items / (sum_items / workers) : 0.0;
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.name != "fa.pool.batch_items") continue;
    m["pool.batch_items_p50"] =
        obs::bucket_quantile(h.bounds, h.buckets, h.count, h.min, h.max, 0.5);
  }
  const double attempted =
      m["kmeans.distances_computed"] + m["kmeans.distances_pruned"];
  m["kmeans.prune_ratio"] =
      attempted > 0.0 ? m["kmeans.distances_pruned"] / attempted : 0.0;
  return m;
}

// The traced run: per-layer metrics (medians over traced operations), the
// workload's extra layer-splitting calls, the 1-thread repeat and the
// Chrome trace. Returns the metrics; counts operations into `stats`.
Metrics traced_run(Workload& w, const Args& a, std::size_t nproc,
                   OpStats& stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  OpStats untraced;
  run_for(w, a.seconds / 2, untraced, [](const OpResult&) {});

  registry.reset();
  obs::set_enabled(true);
  OpStats traced;
  std::vector<Metrics> per_op;
  std::vector<obs::SpanEvent> events;
  run_for(w, a.seconds / 2, traced, [&](const OpResult&) {
    per_op.push_back(layer_metrics(registry.snapshot()));
    events = registry.span_events();  // keep the last operation's spans
    registry.reset();
  });
  Metrics m;
  for (const auto& [name, value] : per_op.front()) {
    std::vector<double> xs;
    for (const Metrics& op : per_op) xs.push_back(op.at(name));
    m[name] = median(std::move(xs));
  }
  Metrics extras;
  w.traced_extras(extras);
  const Metrics split = layer_metrics(registry.snapshot());
  for (const auto& [metric, span] : kSpanSeconds) {
    if (split.at(metric) > 0.0) m[metric] = split.at(metric);
  }
  for (const auto& [name, value] : extras) m[name] = value;
  const std::vector<obs::SpanEvent> extra_events = registry.span_events();
  events.insert(events.end(), extra_events.begin(), extra_events.end());
  registry.reset();
  obs::set_enabled(false);

  // Same operation at one worker thread: the check compares its output to
  // the same reference, so a thread-count-dependent result fails it.
  ThreadPool::set_default_thread_count(1);
  OpStats serial;
  const OpResult one = run_checked(w, serial);
  ThreadPool::set_default_thread_count(nproc);

  const double untraced_s = median(untraced.seconds);
  const double traced_s = median(traced.seconds);
  m["pool.speedup_vs_1t"] =
      one.correct && untraced_s > 0.0 ? one.seconds / untraced_s : 0.0;
  m["obs.overhead_ratio"] = untraced_s > 0.0 ? traced_s / untraced_s : 0.0;
  if (m["sim.emit_s"] > 0.0 && m["detect.events"] > 0.0) {
    m["detect.ingest_s"] = traced_s - m["sim.emit_s"];
  }

  for (const OpStats* s : {&untraced, &traced, &serial}) {
    stats.attempted += s->attempted;
    stats.failed += s->failed;
  }
  if (!a.trace_out.empty() &&
      !obs::write_text_file(a.trace_out, obs::chrome_trace_json(events))) {
    fail("cannot write " + a.trace_out);
  }
  return m;
}

void print_result(const OpStats& stats, const Metrics& m,
                  std::span<const MetricDef> defs) {
  std::string json = "{\"correct\": ";
  json += stats.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(stats.attempted);
  json += ", \"failed\": " + std::to_string(stats.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = m.find(d.name);
    const double v = it == m.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) fail(std::string("metric ") + d.name + " is not finite");
    char line[128];
    std::snprintf(line, sizeof line, "  %-34s %.6g %s\n", d.name, v, d.unit);
    std::cout << line;
    json += first ? "" : ", ";
    first = false;
    json += '"';
    json += d.name;
    json += "\": {\"value\": ";
    json += obs::json_double(v);
    json += ", \"unit\": \"";
    json += d.unit;
    json += "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const std::size_t nproc = usable_cpus();
  stamp(a, nproc);
  ThreadPool::set_default_thread_count(nproc);
  obs::set_enabled(false);

  std::filesystem::create_directories(a.workdir);
  const std::unique_ptr<Workload> w =
      make_workload(a.workload, a.seed, a.scale, a.workdir);
  if (!w) fail("unknown workload " + a.workload);

  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    w->setup();
    setup_times.push_back(seconds_since(start));
  }
  OpStats stats;
  Metrics m;
  if (a.trace) {
    m = traced_run(*w, a, nproc, stats);
  } else {
    run_for(*w, a.seconds, stats, [](const OpResult&) {});
    m["setup_s"] = median(setup_times);
    m["op_s"] = median(stats.seconds);
    m["peak_rss_mb"] = stats.peak_rss_mb;
  }
  std::cout << "ops: " << stats.attempted << " attempted, " << stats.failed
            << " failed\n";
  if (a.trace) {
    print_result(stats, m, kPerLayer);
  } else {
    print_result(stats, m, kEndToEnd);
  }
  return 0;
}

}  // namespace
}  // namespace fa::perfbench

int main(int argc, char** argv) {
  try {
    return fa::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fa_perfbench: " << e.what() << "\n";
    return 1;
  }
}
