// Shared infrastructure for the experiment-reproduction binaries: one
// full-scale simulated trace and one analysis pipeline, each built once per
// process on first use, plus helpers for rendering binned results.
#pragma once

#include <string>

#include "src/analysis/capacity_usage.h"
#include "src/analysis/pipeline.h"
#include "src/paper/comparison.h"
#include "src/paper/reference.h"
#include "src/sim/config.h"
#include "src/trace/database.h"

namespace fa::bench {

// Parses the shared bench flags and applies them process-wide:
//   --threads N        worker threads for parallel_for (0 = all cores);
//                      a non-numeric value is reported and exits with 2
//   --no-obs           turn off metric/span recording at runtime
//   --metrics PATH     write the metrics JSON snapshot at exit
//   --trace-out PATH   write the Chrome trace-event JSON at exit
// (--metrics/--trace-out also accept --flag=PATH.) Unrecognized arguments
// are ignored so binaries can add their own.
void init(int argc, char** argv);

// simulate(config), for ablation and scenario binaries that compare several
// configs. The reference stays valid for the life of the process.
const trace::TraceDatabase& simulated(const sim::SimulationConfig& config);

// The paper-scale trace (5129 PMs, 4292 VMs, one year). Deterministic.
const trace::TraceDatabase& shared_db();

// Crash extraction + classification over shared_db().
const analysis::AnalysisPipeline& shared_pipeline();

// Renders a BinnedRates result as a table: bin label, population, mean
// weekly rate with p25/p75 (the paper's bar-and-whisker panels).
std::string render_binned(const std::string& title,
                          const analysis::BinnedRates& rates,
                          std::size_t min_population = 1);

// Prints the comparison and returns the process exit code (always 0: a
// CHECK verdict is a documented deviation, not a harness failure).
int finish(const paperref::Comparison& comparison);

}  // namespace fa::bench
