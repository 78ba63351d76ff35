// Performance toolkit. Default mode times the vectorized stats kernels
// against their scalar references (`simd` block) and writes the table to
// BENCH_perf.json (path override: --json PATH). --stream S instead runs the
// out-of-core path end to end — streaming simulate -> columnar file ->
// chunk-at-a-time summary at scale S (which may exceed 1) — and reports
// peak RSS alongside the timings (default JSON: BENCH_stream.json). The
// google-benchmark microbenchmarks of the underlying kernels (fitting,
// ECDF, k-means, extraction) run with --micro, which accepts the usual
// --benchmark_* flags. End-to-end timings of the paper report, trace
// generation and online detection live in perfbench/.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/classification.h"
#include "src/analysis/out_of_core.h"
#include "src/analysis/recurrence.h"
#include "src/sim/simulator.h"
#include "src/stats/ecdf.h"
#include "src/stats/fitting.h"
#include "src/stats/kmeans.h"
#include "src/stats/simd.h"
#include "src/text/features.h"
#include "src/trace/trace_writer.h"
#include "src/util/csv.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace fa;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- simd block: dispatched kernels vs their scalar references ----

struct KernelTiming {
  std::string name;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  double speedup() const { return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0; }
};

template <typename F>
double time_kernel_ms(int iters, F&& f) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) benchmark::DoNotOptimize(f());
  return ms_since(t0);
}

// Times each stats kernel over an L2-resident buffer, scalar reference vs
// the dispatched entry point, in one binary (both are always compiled in).
// The equivalence tests pin that the results agree; this block pins that
// the vector path is actually faster.
std::vector<KernelTiming> run_simd_report(std::size_t n, int iters) {
  Rng rng(17);
  std::vector<double> a(n), b(n), cdf(n);
  for (double& x : a) x = rng.uniform(0.1, 10.0);
  for (double& x : b) x = rng.uniform(0.1, 10.0);
  // Sorted pseudo-CDF values for the KS scan.
  for (std::size_t i = 0; i < n; ++i) {
    cdf[i] = (static_cast<double>(i) + 0.3) / static_cast<double>(n);
  }
  // A sparse row hitting every fourth dense coordinate.
  const std::size_t nnz = n / 4;
  std::vector<double> values(nnz);
  std::vector<std::uint32_t> indices(nnz);
  for (std::size_t e = 0; e < nnz; ++e) {
    values[e] = rng.uniform(0.1, 10.0);
    indices[e] = static_cast<std::uint32_t>(4 * e);
  }
  const double mu = stats::simd::scalar::sum(a) / static_cast<double>(n);

  namespace sd = stats::simd;
  std::vector<KernelTiming> kernels;
  const auto time_pair = [&](const char* name, auto&& scalar_fn,
                             auto&& simd_fn) {
    KernelTiming k;
    k.name = name;
    k.scalar_ms = time_kernel_ms(iters, scalar_fn);
    k.simd_ms = time_kernel_ms(iters, simd_fn);
    kernels.push_back(std::move(k));
  };
  time_pair("sum", [&] { return sd::scalar::sum(a); },
            [&] { return sd::sum(a); });
  time_pair("sum_sq", [&] { return sd::scalar::sum_sq(a); },
            [&] { return sd::sum_sq(a); });
  time_pair("sum_sq_dev", [&] { return sd::scalar::sum_sq_dev(a, mu); },
            [&] { return sd::sum_sq_dev(a, mu); });
  time_pair("dot", [&] { return sd::scalar::dot(a, b); },
            [&] { return sd::dot(a, b); });
  time_pair("squared_distance",
            [&] { return sd::scalar::squared_distance(a, b); },
            [&] { return sd::squared_distance(a, b); });
  time_pair("sparse_dot",
            [&] {
              return sd::scalar::sparse_dot(values.data(), indices.data(), nnz,
                                            b.data());
            },
            [&] {
              return sd::sparse_dot(values.data(), indices.data(), nnz,
                                    b.data());
            });
  time_pair("ks_max_deviation",
            [&] { return sd::scalar::ks_max_deviation(cdf.data(), n); },
            [&] { return sd::ks_max_deviation(cdf.data(), n); });
  return kernels;
}

int run_simd_table(const std::string& json_path) {
  const std::size_t simd_elements = std::size_t{1} << 14;
  const auto simd_kernels = run_simd_report(simd_elements, 2000);

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"simd\": {\n");
  std::fprintf(out, "    \"dispatch\": \"%.*s\",\n",
               static_cast<int>(stats::simd::dispatch_name().size()),
               stats::simd::dispatch_name().data());
  std::fprintf(out, "    \"elements\": %zu,\n", simd_elements);
  std::fprintf(out, "    \"kernels\": [\n");
  for (std::size_t i = 0; i < simd_kernels.size(); ++i) {
    const KernelTiming& k = simd_kernels[i];
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"scalar_ms\": %.3f, "
                 "\"simd_ms\": %.3f, \"speedup\": %.3f}%s\n",
                 k.name.c_str(), k.scalar_ms, k.simd_ms, k.speedup(),
                 i + 1 < simd_kernels.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("simd:     dispatch %.*s\n",
              static_cast<int>(stats::simd::dispatch_name().size()),
              stats::simd::dispatch_name().data());
  for (const KernelTiming& k : simd_kernels) {
    std::printf("  %-17s scalar %.1f ms, simd %.1f ms (%.1fx)\n",
                k.name.c_str(), k.scalar_ms, k.simd_ms, k.speedup());
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

// Peak resident set in kilobytes (Linux ru_maxrss unit).
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// The out-of-core path end to end: stream the simulator into a columnar
// file (no database is ever materialized), then summarize it
// chunk-at-a-time. The peak RSS after each phase is recorded because it is
// not bounded by the chunk size: the summary's grows with the fleet
// (docs/PERF.md, "Columnar trace I/O").
int run_stream_report(double scale, const std::string& json_path) {
  namespace fs = std::filesystem;
  const auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
  const fs::path fac_path = "bench_stream.fac";
  const long rss_start_kb = peak_rss_kb();

  auto t0 = Clock::now();
  trace::ColumnarTraceWriter writer(fac_path.string());
  sim::simulate_to(config, writer);
  const double generate_ms = ms_since(t0);
  const long rss_generate_kb = peak_rss_kb();
  const std::uint64_t servers = writer.server_count();
  const std::uint64_t tickets = writer.ticket_count();
  const std::uint64_t file_bytes = fs::file_size(fac_path);

  t0 = Clock::now();
  const auto summary = analysis::summarize_columnar(fac_path.string());
  const double analyze_ms = ms_since(t0);
  const long rss_analyze_kb = peak_rss_kb();
  fs::remove(fac_path);

  const bool counts_match =
      summary.servers == servers && summary.tickets == tickets;
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": %.2f,\n", scale);
  std::fprintf(out, "  \"servers\": %llu,\n",
               static_cast<unsigned long long>(servers));
  std::fprintf(out, "  \"tickets\": %llu,\n",
               static_cast<unsigned long long>(tickets));
  std::fprintf(out, "  \"crash_tickets\": %llu,\n",
               static_cast<unsigned long long>(summary.crash_tickets));
  std::fprintf(out, "  \"file_bytes\": %llu,\n",
               static_cast<unsigned long long>(file_bytes));
  std::fprintf(out, "  \"generate_ms\": %.3f,\n", generate_ms);
  std::fprintf(out, "  \"analyze_ms\": %.3f,\n", analyze_ms);
  std::fprintf(out, "  \"rss_start_kb\": %ld,\n", rss_start_kb);
  std::fprintf(out, "  \"rss_after_generate_kb\": %ld,\n", rss_generate_kb);
  std::fprintf(out, "  \"rss_after_analyze_kb\": %ld,\n", rss_analyze_kb);
  std::fprintf(out, "  \"counts_match\": %s\n",
               counts_match ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("stream scale %.2f: %llu servers, %llu tickets, %llu B file\n",
              scale, static_cast<unsigned long long>(servers),
              static_cast<unsigned long long>(tickets),
              static_cast<unsigned long long>(file_bytes));
  std::printf("  generate %.1f ms, analyze %.1f ms\n", generate_ms,
              analyze_ms);
  std::printf("  peak RSS: start %ld KB, generate %ld KB, analyze %ld KB\n",
              rss_start_kb, rss_generate_kb, rss_analyze_kb);
  std::printf("  summary counts match writer tallies: %s\n",
              counts_match ? "yes" : "NO");
  std::printf("wrote %s\n", json_path.c_str());
  return counts_match ? 0 : 1;
}

std::vector<double> gamma_sample(std::size_t n) {
  Rng rng(1);
  const stats::GammaDist dist(0.6, 40.0);
  std::vector<double> xs(n);
  for (double& x : xs) x = dist.sample(rng);
  return xs;
}

void BM_SimulateScaled(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  const auto config = sim::SimulationConfig::paper_defaults().scaled(scale);
  for (auto _ : state) {
    const auto db = sim::simulate(config);
    benchmark::DoNotOptimize(db.tickets().size());
  }
  state.SetLabel("scale=" + std::to_string(scale));
}
BENCHMARK(BM_SimulateScaled)->Arg(10)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_FitGamma(benchmark::State& state) {
  const auto xs = gamma_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_gamma(xs).shape());
  }
}
BENCHMARK(BM_FitGamma)->Arg(1000)->Arg(10000);

void BM_FitCandidates(benchmark::State& state) {
  const auto xs = gamma_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_candidates(xs).front().aic);
  }
}
BENCHMARK(BM_FitCandidates)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_EcdfBuildAndQuery(benchmark::State& state) {
  const auto xs = gamma_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const stats::Ecdf cdf(xs);
    benchmark::DoNotOptimize(cdf.quantile(0.95));
  }
}
BENCHMARK(BM_EcdfBuildAndQuery)->Arg(1000)->Arg(100000);

void BM_KMeansTfIdf(benchmark::State& state) {
  // Cluster synthetic ticket-like documents end to end.
  Rng rng(3);
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  const auto db = sim::simulate(config);
  std::vector<std::string> docs;
  for (const auto& t : db.tickets()) {
    if (t.is_crash) docs.push_back(t.description + " " + t.resolution);
  }
  const auto vectorizer = text::Vectorizer::fit(docs, {});
  const auto features = vectorizer.transform_all_sparse(docs);
  stats::KMeansOptions options;
  options.k = 12;
  options.restarts = 2;
  for (auto _ : state) {
    Rng local(7);
    benchmark::DoNotOptimize(
        stats::kmeans(features, options, local).inertia);
  }
  state.SetLabel(std::to_string(docs.size()) + " docs, dim=" +
                 std::to_string(vectorizer.dimension()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * docs.size()));
}
BENCHMARK(BM_KMeansTfIdf)->Unit(benchmark::kMillisecond);

void BM_ClassificationPipeline(benchmark::State& state) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.1);
  const auto db = sim::simulate(config);
  const auto tickets = analysis::extract_crash_tickets(db);
  for (auto _ : state) {
    Rng rng(5);
    benchmark::DoNotOptimize(
        analysis::classify_tickets(tickets, {}, rng).accuracy);
  }
  state.SetLabel(std::to_string(tickets.size()) + " crash tickets");
}
BENCHMARK(BM_ClassificationPipeline)->Unit(benchmark::kMillisecond);

void BM_CrashExtraction(benchmark::State& state) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.2);
  const auto db = sim::simulate(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::extract_crash_tickets(db).size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * db.tickets().size()));
}
BENCHMARK(BM_CrashExtraction)->Unit(benchmark::kMillisecond);

void BM_RecurrenceAnalysis(benchmark::State& state) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.5);
  const auto db = sim::simulate(config);
  const auto failures = db.crash_tickets();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::recurrent_probability(
        db, failures, {}, kMinutesPerWeek));
  }
}
BENCHMARK(BM_RecurrenceAnalysis);

}  // namespace

int main(int argc, char** argv) {
  bool micro = false;
  double stream_scale = 0.0;
  std::string json_path;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--micro") {
      micro = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--stream") {
      const std::string value = i + 1 < argc ? argv[++i] : "";
      stream_scale = 0.0;
      try {
        stream_scale = parse_finite_double(value);
      } catch (const Error&) {
      }
      if (!(stream_scale > 0.0)) {
        std::fprintf(stderr,
                     "invalid --stream value '%s' (expected a positive "
                     "finite number)\n",
                     value.c_str());
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (stream_scale > 0.0) {
    return run_stream_report(stream_scale,
                             json_path.empty() ? "BENCH_stream.json"
                                               : json_path);
  }
  if (!micro) {
    return run_simd_table(json_path.empty() ? "BENCH_perf.json" : json_path);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
