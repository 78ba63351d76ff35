#include "bench/bench_common.h"

#include <cstdlib>
#include <deque>
#include <iostream>
#include <mutex>
#include <string_view>

#include "src/analysis/report.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace fa::bench {

namespace {

std::string g_metrics_path;
std::string g_trace_path;

// Applies a --threads value, exiting with a diagnostic when it is not a
// number (silently treating "abc" as 0 would fan out to every core).
void set_threads_or_die(std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const unsigned long n = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    std::cerr << "invalid --threads value '" << text
              << "' (expected a non-negative integer)\n";
    std::exit(2);
  }
  ThreadPool::set_default_thread_count(static_cast<std::size_t>(n));
}

void export_observability_at_exit() {
  obs::export_registry_files(g_metrics_path, g_trace_path);
}

}  // namespace

void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--no-obs") {
      obs::set_enabled(false);
    } else if (arg == "--threads" && i + 1 < argc) {
      set_threads_or_die(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      set_threads_or_die(arg.substr(10));
    } else if (arg == "--metrics" && i + 1 < argc) {
      g_metrics_path = argv[++i];
    } else if (arg.rfind("--metrics=", 0) == 0) {
      g_metrics_path = arg.substr(10);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      g_trace_path = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      g_trace_path = arg.substr(12);
    }
  }
  if (!g_metrics_path.empty() || !g_trace_path.empty()) {
    // Touch the (leaked) registry before registering the handler so it
    // exists whenever the handler runs; atexit order is then irrelevant.
    obs::MetricsRegistry::global();
    std::atexit(export_observability_at_exit);
  }
}

const trace::TraceDatabase& simulated(const sim::SimulationConfig& config) {
  // A deque never moves its elements, so every reference handed out here
  // stays valid for the life of the process.
  static std::mutex mutex;
  static std::deque<trace::TraceDatabase> pinned;
  trace::TraceDatabase db = sim::simulate(config);
  std::lock_guard<std::mutex> lock(mutex);
  return pinned.emplace_back(std::move(db));
}

const trace::TraceDatabase& shared_db() {
  static const trace::TraceDatabase db =
      sim::simulate(sim::SimulationConfig::paper_defaults());
  return db;
}

const analysis::AnalysisPipeline& shared_pipeline() {
  static const analysis::AnalysisPipeline pipeline(shared_db());
  return pipeline;
}

std::string render_binned(const std::string& title,
                          const analysis::BinnedRates& rates,
                          std::size_t min_population) {
  analysis::TextTable table(
      {"bin", "population", "failures", "weekly rate", "p25", "p75"});
  for (std::size_t b = 0; b < rates.population.size(); ++b) {
    if (rates.population[b] < min_population) continue;
    const auto& summary = rates.weekly_summary[b];
    table.add_row({rates.spec.label(b), std::to_string(rates.population[b]),
                   std::to_string(rates.failure_count[b]),
                   format_double(summary.mean, 5),
                   format_double(summary.p25, 5),
                   format_double(summary.p75, 5)});
  }
  return title + "\n" + table.to_string();
}

int finish(const paperref::Comparison& comparison) {
  std::cout << comparison.render() << std::flush;
  return 0;
}

}  // namespace fa::bench
