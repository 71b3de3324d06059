#pragma once
// Experiment runner: assembles the full per-device stack (camera stream,
// IMU, motion estimator, caches, peer service, pipeline) for every device
// in a scenario, drives the event simulation for the configured duration,
// and returns pooled metrics.

#include <memory>

#include "src/features/extractor.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/metrics.hpp"
#include "src/sim/scenario.hpp"
#include "src/sim/trace.hpp"

namespace apx {

/// Runs one scenario to completion: every device lives in one event
/// simulation, sharing one wireless medium. Throws std::invalid_argument
/// on num_devices < 1 or num_threads != 1.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(const ScenarioConfig& config);
  ~ExperimentRunner();

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Executes the scenario and returns pooled metrics. Callable once.
  ExperimentMetrics run();

  /// Per-device metrics, valid after run().
  const std::vector<ExperimentMetrics>& device_metrics() const noexcept;

  /// Entries held by the region edge service across its shards (0 when the
  /// ladder has no edge rung).
  std::size_t edge_cache_size() const;

  /// Pooled observability registry (per-rung latency histograms, hit/miss
  /// and source counters, cache/ann/p2p instruments), valid after run().
  /// Devices record into private registries during the run; those are
  /// merged here in device order.
  const MetricsRegistry& metrics() const noexcept;

  /// Recorded per-frame trace (empty unless ScenarioConfig::record_trace).
  const TraceRecorder& trace() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: build, run, return pooled metrics.
ExperimentMetrics run_scenario(const ScenarioConfig& config);

/// Builds the scenario's feature extractor (the runner's choice exposed for
/// benches that need extractor parity with a scenario).
std::unique_ptr<FeatureExtractor> make_extractor(ExtractorKind kind);

/// Builds an eviction policy by kind.
std::unique_ptr<EvictionPolicy> make_eviction(EvictionKind kind);

}  // namespace apx
