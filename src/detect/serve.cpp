#include "src/detect/serve.h"

#include <memory>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/simulator.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"

namespace fa::detect {

TenantResult serve_tenant(const TenantSpec& spec,
                          const ScoreOptions& score_options,
                          const HealthOptions& health) {
  require(!spec.name.empty(), "serve_tenant: tenant name must be non-empty");
  obs::Span span("detect.serve_tenant");

  DetectorOptions options = spec.detector;
  options.tenant = spec.name;
  OnlineDetector detector(std::move(options));

  // Sink chain, innermost first: detector <- throttle <- health monitor.
  // Each stage forwards events unchanged; the chain only adds accounting.
  trace::StreamSink* sink = &detector;
  std::unique_ptr<ThrottledSink> throttle;
  if (spec.throttle.service_minutes > 0) {
    throttle =
        std::make_unique<ThrottledSink>(*sink, spec.throttle, spec.name);
    sink = throttle.get();
  }
  TenantResult result;
  std::unique_ptr<HealthMonitor> monitor;
  if (health.every > 0) {
    monitor = std::make_unique<HealthMonitor>(
        *sink, detector, throttle.get(), health, spec.name,
        [&result](const Heartbeat& hb) { result.heartbeats.push_back(hb); });
    sink = monitor.get();
  }

  const trace::TraceDatabase db = sim::simulate(spec.config);
  sim::emit_stream(db, spec.scenario, *sink);

  result.name = spec.name;
  result.change_points = spec.scenario.change_points();
  result.report = detector.report();
  result.score =
      score_alerts(result.change_points, result.report.alerts, score_options);
  if (throttle) result.backpressure = throttle->stats();
  return result;
}

std::vector<TenantResult> serve_tenants(const std::vector<TenantSpec>& specs,
                                        const ScoreOptions& score_options,
                                        const HealthOptions& health) {
  obs::Span span("detect.serve");
  std::vector<TenantResult> results(specs.size());
  // Tenant i writes only slot i and owns all of its randomness (the config
  // seed), so the result set is independent of scheduling. The inner
  // simulate() also uses parallel_for; the pool runs such nested calls on
  // the tenant's thread and any idle workers (see thread_pool.h).
  parallel_for(specs.size(), [&](std::size_t i) {
    results[i] = serve_tenant(specs[i], score_options, health);
  });
  obs::counter("fa.detect.serve.tenants").add(specs.size());
  return results;
}

}  // namespace fa::detect
