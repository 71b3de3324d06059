#pragma once
// The rung plugin interface. The reuse ladder is data: a ReusePipeline
// holds an ordered vector of ReuseRung instances built from a LadderSpec
// (see ladder.hpp), and each rung implements one tier of the poster's
// cheapest-first cascade. A rung either answers the frame
// (host.finish(...)) or passes it down (host.advance()); asynchronous cost
// is paid through host.schedule(), which epoch-guards the continuation
// against the frame having been answered elsewhere.
//
// Rungs talk to the pipeline exclusively through the host's rung-facing
// API (pipeline.hpp): the simulator clock, the frame context, the trace,
// the shared RNG and the adaptive-threshold controller. They never touch
// each other directly — inter-rung dataflow goes through FrameContext
// (e.g. features extracted by the warm tier are reused by the local cache
// rung via `features_ready`).

#include <functional>
#include <memory>
#include <string_view>

#include "src/core/config.hpp"
#include "src/core/result.hpp"
#include "src/obs/frame_trace.hpp"
#include "src/video/stream.hpp"

namespace apx {

class ReusePipeline;
class MetricsRegistry;
class FeatureExtractor;
class RecognitionModel;
class ApproxCache;
class ExactCache;
class PeerCacheService;
class EdgeClient;
struct LadderSpec;

/// Everything the ladder knows about the frame in flight. Replaces the old
/// pipeline-private InFlight blob so rungs can share state explicitly.
struct FrameContext {
  Frame frame;
  MotionState motion = MotionState::kMajor;
  std::function<void(const RecognitionResult&)> done;
  GateDecision gate;                ///< set by the IMU rung
  SimDuration compute_latency = 0;  ///< accumulated CPU-active time
  double dnn_energy = 0.0;          ///< energy of a DNN run, when one ran
  FeatureVec features;              ///< filled by the first feature-needing rung
  bool features_ready = false;
  std::size_t rung_index = 0;       ///< ladder position currently running
};

/// Collaborators available to rung factories. Pointers may be null when the
/// corresponding subsystem is not provisioned; the ladder validation
/// (pipeline ctor) rejects specs whose rungs need a missing collaborator.
struct RungBuildContext {
  const PipelineConfig* config = nullptr;
  const LadderSpec* spec = nullptr;
  const FeatureExtractor* extractor = nullptr;
  RecognitionModel* model = nullptr;
  ApproxCache* cache = nullptr;
  ExactCache* exact_cache = nullptr;
  PeerCacheService* peers = nullptr;
  EdgeClient* edge = nullptr;
};

/// One tier of the reuse ladder.
class ReuseRung {
 public:
  virtual ~ReuseRung() = default;

  /// The ladder-spec token ("imu", "temporal", "warm", "local", ...).
  virtual std::string_view name() const noexcept = 0;

  /// The trace/metrics rung this tier reports under. Distinct rung types
  /// may share one (the exact-cache rung reports as the local-cache rung —
  /// both are "the cache lookup" to the per-rung breakdown).
  virtual Rung trace_rung() const noexcept = 0;

  /// Tries to answer the in-flight frame. Must eventually call either
  /// host.finish(...) or host.advance() (possibly from a scheduled
  /// continuation).
  virtual void run(ReusePipeline& host) = 0;

  /// Completion hook: every rung observes the frame's final result before
  /// the context is torn down (keyframe refresh, warm-tier learning).
  virtual void on_result(ReusePipeline& host,
                         const RecognitionResult& result) {
    (void)host;
    (void)result;
  }

  /// A ResultSource name this rung can answer with beyond the schema
  /// baseline (nullptr for none) — its counter is registered when the rung
  /// is in the ladder.
  virtual const char* extra_source() const noexcept { return nullptr; }

  /// Subsystem instruments beyond the standard per-rung set (the regions
  /// rung's block counters, for example). Called once, from the pipeline's
  /// attach_metrics(): the rung registers every instrument by handle here,
  /// counts into `metrics` from then on, and records nothing before it.
  virtual void register_metrics(MetricsRegistry& metrics) { (void)metrics; }
};

}  // namespace apx
