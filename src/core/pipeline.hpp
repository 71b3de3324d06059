#pragma once
// ReusePipeline — the poster's contribution. For each frame it walks the
// reuse ladder cheapest-first and only runs the DNN when every rung fails:
//
//   frame -> [IMU fast path] -> [temporal keyframe reuse]
//         -> [quantized warm tier (optional)]
//         -> [feature extraction -> local approximate cache (A-LSH + H-kNN)]
//         -> [P2P lookup, merge, re-vote] -> full DNN inference
//
// The ladder is data, not code: a vector of ReuseRung plugins built from a
// LadderSpec (core/rungs/ladder.hpp) — either the declarative string in
// PipelineConfig::ladder or the spec derived from the config's enable_*
// flags. The pipeline itself is only the driver: frame admission, the
// epoch-guarded scheduling seam, metrics plumbing and result delivery.
// Each rung pays its simulated on-device cost; the P2P rung additionally
// waits for the network round (event-driven). Results are delivered
// through a completion callback because the P2P and inference stages are
// asynchronous in simulated time.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/exact_cache.hpp"
#include "src/core/config.hpp"
#include "src/core/result.hpp"
#include "src/core/rungs/ladder.hpp"
#include "src/core/rungs/rung.hpp"
#include "src/features/extractor.hpp"
#include "src/net/event_sim.hpp"
#include "src/obs/frame_trace.hpp"
#include "src/obs/metrics.hpp"
#include "src/video/stream.hpp"

namespace apx {

/// Per-device recognition pipeline with computation reuse.
///
/// Single in-flight frame: process() refuses (returns false) while a frame
/// is being worked on, modelling a mobile app that drops frames when the
/// recognizer is busy. All referenced collaborators must outlive the
/// pipeline; `peers` may be null (single-device deployments).
class ReusePipeline {
 public:
  using Callback = std::function<void(const RecognitionResult&)>;

  /// Resolves the ladder (config.ladder when set, else derived from the
  /// enable_* flags) and builds the rung chain. Throws
  /// std::invalid_argument when the spec is malformed or needs a
  /// collaborator that was not provided (local without `cache`, exact
  /// without `exact_cache`, edge without `edge`).
  ReusePipeline(EventSimulator& sim, const PipelineConfig& config,
                const FeatureExtractor& extractor, RecognitionModel& model,
                ApproxCache* cache, ExactCache* exact_cache,
                PeerCacheService* peers, EdgeClient* edge,
                std::uint64_t seed);

  /// Edge-less deployments (the common case before the edge tier).
  ReusePipeline(EventSimulator& sim, const PipelineConfig& config,
                const FeatureExtractor& extractor, RecognitionModel& model,
                ApproxCache* cache, ExactCache* exact_cache,
                PeerCacheService* peers, std::uint64_t seed)
      : ReusePipeline(sim, config, extractor, model, cache, exact_cache,
                      peers, nullptr, seed) {}

  /// Starts processing `frame`; `done` fires exactly once on completion.
  /// Returns false (and drops the frame) when still busy with an earlier
  /// frame. `motion` is the device's current IMU-estimated motion state.
  bool process(const Frame& frame, MotionState motion, Callback done);

  bool busy() const noexcept { return busy_; }

  const PipelineConfig& config() const noexcept { return config_; }

  /// The resolved ladder composition this pipeline runs.
  const LadderSpec& ladder() const noexcept { return spec_; }

  /// The adaptive threshold state (meaningful when the feature is enabled).
  const ThresholdController& threshold_controller() const noexcept {
    return threshold_;
  }

  /// Registers per-rung latency histograms, per-rung hit/miss counters,
  /// per-source counters and "pipeline/dropped" (see obs/report.hpp for the
  /// naming scheme), plus every rung's own instruments, and starts
  /// recording every completed frame's trace into them. The schema-baseline
  /// rung and source names are registered whatever the ladder. Until then
  /// the pipeline records nothing. The registry must outlive the pipeline.
  void attach_metrics(MetricsRegistry& metrics);

  /// Trace of the most recently completed frame (rungs visited, in order).
  /// Reused across frames: read it from the completion callback, before the
  /// next process() call resets it.
  const FrameTrace& last_trace() const noexcept { return trace_; }

  // ----------------------------------------------------- rung-facing API
  // Everything below exists for ReuseRung implementations; application
  // code has no reason to call it.

  EventSimulator& sim() noexcept { return *sim_; }
  Rng& rng() noexcept { return rng_; }
  FrameTrace& trace() noexcept { return trace_; }

  /// The in-flight frame. Only valid while busy().
  FrameContext& frame_ctx() noexcept { return *ctx_; }

  /// Mutable adaptive-threshold controller (IMU trim, DNN validation).
  ThresholdController& threshold() noexcept { return threshold_; }

  /// Last delivered result (feeds the IMU fast path and temporal reuse).
  const std::optional<Prediction>& last_result() const noexcept {
    return last_result_;
  }
  SimTime last_result_time() const noexcept { return last_result_time_; }

  /// Adds `d` to the frame's CPU-active time (excludes DNN and radio).
  void spend(SimDuration d) { ctx_->compute_latency += d; }

  /// Epoch of the in-flight frame; live(epoch) tells a callback whether
  /// that frame is still the one being processed.
  std::uint64_t epoch() const noexcept { return epoch_; }
  bool live(std::uint64_t epoch) const noexcept {
    return epoch == epoch_ && busy_;
  }

  /// Schedules `fn` after `delay` of simulated time, epoch-guarded: it is
  /// silently dropped when the frame completed or was superseded meanwhile.
  void schedule(SimDuration delay, std::function<void()> fn);

  /// Hands the frame to the next rung down the ladder (synchronously).
  void advance();

  /// Completes the in-flight frame: builds the RecognitionResult, records
  /// metrics and trace spans, runs every rung's on_result hook, then fires
  /// the completion callback.
  void finish(ResultSource source, Label label, float confidence);

 private:
  struct RungInstruments {
    MetricsRegistry::HistogramId latency_us = 0;
    MetricsRegistry::CounterId hit = 0;
    MetricsRegistry::CounterId miss = 0;
  };

  double compute_energy() const;

  EventSimulator* sim_;
  PipelineConfig config_;
  const FeatureExtractor* extractor_;
  RecognitionModel* model_;
  ApproxCache* cache_;
  ExactCache* exact_cache_;
  PeerCacheService* peers_;
  EdgeClient* edge_;
  Rng rng_;

  ThresholdController threshold_;

  LadderSpec spec_;
  std::vector<std::unique_ptr<ReuseRung>> rungs_;

  bool busy_ = false;
  std::optional<FrameContext> ctx_;
  std::uint64_t epoch_ = 0;  ///< guards stale async callbacks

  // Last delivered result (feeds the IMU fast path).
  std::optional<Prediction> last_result_;
  SimTime last_result_time_ = 0;

  FrameTrace trace_;
  /// The registry every instrument below lives in; null until
  /// attach_metrics().
  MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, RungInstruments, std::less<>> rung_instruments_;
  std::map<std::string, MetricsRegistry::CounterId, std::less<>>
      source_counters_;
  MetricsRegistry::CounterId dropped_counter_ = 0;
};

}  // namespace apx
