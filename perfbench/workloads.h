// The benchmark's three workloads. Each builds its inputs from a seed in
// set-up, then runs timed operations through the toolkit's public API and
// checks every operation's output against a reference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fa::perfbench {

// Per-layer numbers by metric name.
using Metrics = std::map<std::string, double>;

// The benchmark cannot measure on this host (e.g. the kernel refuses to
// reset the memory high-water mark). Ends the run without a result rather
// than counting a failed operation.
class MeasurementError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct OpResult {
  double seconds = 0.0;     // wall time of the timed region only
  std::uint64_t items = 0;  // tickets (report, generate) or events (stream)
  double peak_rss_mb = 0.0;  // peak resident memory during the timed region
  bool correct = false;
  std::string failure;  // why the correctness check failed, if it did
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs and the correctness references from the seed. Each
  // call starts from scratch, so set-up can be repeated and timed.
  virtual void setup() = 0;

  // One operation: the timed calls, then the correctness check (untimed).
  virtual OpResult run_op() = 0;

  // Traced run only, after the traced operations: extra public calls that
  // split the operation into layers, and the workload's deterministic
  // outputs (file sizes, detection scores), added to `out`.
  virtual void traced_extras(Metrics& out) = 0;
};

// `scale` multiplies the paper-default fleet; `workdir` holds the files the
// workload writes. Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, double scale,
                                        const std::string& workdir);

}  // namespace fa::perfbench
