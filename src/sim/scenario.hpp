#pragma once
// Scenario description: everything an experiment needs, in one value type.
// A scenario is a pure function of this config plus its seed — re-running
// one is bit-reproducible.

#include "src/core/config.hpp"
#include "src/dnn/zoo.hpp"
#include "src/image/scene.hpp"
#include "src/net/faults.hpp"
#include "src/video/stream.hpp"

namespace apx {

/// Which feature extractor devices run.
enum class ExtractorKind { kDownsample, kHistogram, kHog, kCnn };

/// Which eviction policy caches use.
enum class EvictionKind { kLru, kLfu, kUtility };

/// Full multi-device experiment description.
struct ScenarioConfig {
  // --- world ---
  SceneGenerator::Config scene;   ///< classes, size, confusion
  double zipf_s = 0.8;            ///< object popularity skew
  std::uint64_t seed = 1;

  // --- fleet ---
  int num_devices = 1;
  SimDuration duration = 60 * kSecond;
  /// Must be 1; ExperimentRunner rejects any other value. Removed once the
  /// benchmark stops reading it.
  int num_threads = 1;
  /// All devices share one proximity cell when true (co-located crowd);
  /// otherwise each device sits alone and P2P finds no peers.
  bool co_located = true;

  // --- per-device sensing ---
  VideoStreamConfig video;
  double imu_rate_hz = 100.0;
  /// Random mobility schedule shape.
  SimDuration mean_segment = 4 * kSecond;
  double p_stationary = 0.4;
  double p_minor = 0.4;
  double p_major = 0.2;

  // --- recognition stack ---
  PipelineConfig pipeline;
  ModelProfile model = mobilenet_v2_profile();
  /// Use the real centroid classifier instead of the accuracy oracle
  /// (slower; for small runs and correctness checks).
  bool use_real_classifier = false;
  ExtractorKind extractor = ExtractorKind::kCnn;
  EvictionKind eviction = EvictionKind::kUtility;
  /// Record every per-frame outcome to an in-memory trace readable via
  /// ExperimentRunner::trace() (see sim/trace.hpp).
  bool record_trace = false;
  /// Override pipeline.cache.hknn.max_distance with the extractor's
  /// geometry-calibrated recommendation (see
  /// FeatureExtractor::recommended_max_distance). Set false when sweeping
  /// the threshold explicitly.
  bool auto_threshold = true;

  // --- network ---
  MediumParams medium;
  PeerCacheParams peer;
  /// Deterministic fault injection (burst loss, delay spikes, partitions,
  /// crash/restart, corruption). Default-constructed = no faults; the
  /// injector is seeded from the scenario seed, so chaos runs stay
  /// bit-reproducible. See net/faults.hpp and `apxsim --faults`.
  FaultPlan faults;

  // --- infrastructure ---
  /// Edge-tier chaos hooks (only meaningful when the pipeline ladder has an
  /// edge rung). When edge_down_at > 0 the region's EdgeCacheService
  /// crashes at that time — it stops serving and wipes every shard. When
  /// edge_up_at > edge_down_at it restarts empty and devices re-warm it
  /// through their normal DNN-validated feeds.
  SimTime edge_down_at = 0;
  SimTime edge_up_at = 0;

  // --- churn ---
  /// When > 0, each device independently alternates between the shared
  /// cell and an isolated cell (people walking in and out of radio range).
  /// Stay durations are exponential with means churn_period * (1 - f) in
  /// range and churn_period * f out of range, where f = churn_away_fraction.
  /// Only meaningful with co_located = true and P2P enabled.
  SimDuration churn_period = 0;
  double churn_away_fraction = 0.3;
};

/// Baseline scenario used across the evaluation: a co-located group of
/// devices watching a shared 64-class world with Zipf-popular objects.
ScenarioConfig default_scenario();

}  // namespace apx
