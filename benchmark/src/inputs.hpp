#pragma once
// Input generation for the ladder leg: every device's camera frames and raw
// IMU windows, rendered up front with exactly the RNG forks
// ExperimentRunner uses, so the ladder leg can replay them with rendering
// taken out of the measured loop.

#include <cstdint>
#include <memory>
#include <vector>

#include "benchmark/src/spans.hpp"
#include "src/features/extractor.hpp"
#include "src/imu/trace.hpp"
#include "src/sim/scenario.hpp"
#include "src/video/stream.hpp"

namespace apxbench {

struct DeviceInputs {
  std::uint64_t pipeline_seed = 0;
  std::vector<apx::Frame> frames;
  /// imu[i]: the samples the runner pulls just before frames[i].
  std::vector<std::vector<apx::ImuSample>> imu;
};

struct FleetInputs {
  /// The scenario as ExperimentRunner normalises it (ladder applied to the
  /// enable_* flags, quantize flag synced, auto threshold resolved).
  apx::ScenarioConfig config;
  std::unique_ptr<apx::FeatureExtractor> extractor;
  std::uint64_t medium_seed = 0;
  std::vector<DeviceInputs> devices;

  /// Frames the cameras offer over the run, dropped ones included.
  std::size_t offered() const;
};

/// Generates the inputs of `config`. With a tracer, every render and IMU
/// synthesis call is recorded as a span. Throws std::invalid_argument for
/// scenario features the ladder leg does not mirror (faults, churn, edge
/// chaos, the centroid classifier, parallel shards).
FleetInputs generate_inputs(const apx::ScenarioConfig& config,
                            Tracer* tracer = nullptr);

}  // namespace apxbench
