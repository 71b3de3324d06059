#include "src/core/pipeline.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "src/obs/report.hpp"

namespace apx {

ReusePipeline::ReusePipeline(EventSimulator& sim, const PipelineConfig& config,
                             const FeatureExtractor& extractor,
                             RecognitionModel& model, ApproxCache* cache,
                             ExactCache* exact_cache, PeerCacheService* peers,
                             EdgeClient* edge, std::uint64_t seed)
    : sim_(&sim),
      config_(config),
      extractor_(&extractor),
      model_(&model),
      cache_(cache),
      exact_cache_(exact_cache),
      peers_(peers),
      edge_(edge),
      rng_(seed),
      threshold_(config.threshold) {
  if (!config_.ladder.empty()) {
    // The declarative spec is authoritative; sync the flags to it so
    // flag-reading rungs and callers can never observe a divergent config.
    spec_ = LadderSpec::parse(config_.ladder);
    apply_ladder(config_, spec_);
  } else {
    spec_ = LadderSpec::from_config(config_);
  }
  if (spec_.has("local") && cache_ == nullptr) {
    throw std::invalid_argument("ReusePipeline: approx mode needs a cache");
  }
  if (spec_.has("exact") && exact_cache_ == nullptr) {
    throw std::invalid_argument("ReusePipeline: exact mode needs a cache");
  }
  if (spec_.has("edge") && edge_ == nullptr) {
    throw std::invalid_argument(
        "ReusePipeline: edge rung needs an edge client");
  }
  if (spec_.has("regions") && extractor_->staged_cnn() == nullptr) {
    throw std::invalid_argument(
        "ReusePipeline: regions rung needs a staged-CNN extractor "
        "(--extractor cnn)");
  }
  const RungBuildContext build_ctx{&config_, &spec_,       extractor_,
                                   model_,   cache_,       exact_cache_,
                                   peers_,   edge_};
  rungs_ = build_ladder(spec_, build_ctx);
}

bool ReusePipeline::process(const Frame& frame, MotionState motion,
                            Callback done) {
  assert(done);
  if (busy_) {
    inc_if_attached(metrics_, dropped_counter_);
    return false;
  }
  busy_ = true;
  ++epoch_;
  ctx_.emplace();
  ctx_->frame = frame;
  ctx_->motion = motion;
  ctx_->done = std::move(done);
  trace_.reset(frame.t);
  ctx_->rung_index = 0;
  rungs_.front()->run(*this);
  return true;
}

void ReusePipeline::schedule(SimDuration delay, std::function<void()> fn) {
  const std::uint64_t epoch = epoch_;
  sim_->schedule_after(delay, [this, epoch, fn = std::move(fn)] {
    if (epoch != epoch_ || !busy_) return;
    fn();
  });
}

void ReusePipeline::advance() {
  assert(busy_ && ctx_.has_value());
  ++ctx_->rung_index;
  assert(ctx_->rung_index < rungs_.size());
  rungs_[ctx_->rung_index]->run(*this);
}

void ReusePipeline::attach_metrics(MetricsRegistry& metrics) {
  metrics_ = &metrics;
  rung_instruments_.clear();
  source_counters_.clear();
  const auto add_rung = [&](std::string_view name) {
    if (rung_instruments_.find(name) != rung_instruments_.end()) return;
    RungInstruments instruments;
    instruments.latency_us =
        metrics.histogram(rung_latency_metric(name), latency_us_bounds());
    instruments.hit =
        metrics.counter(rung_outcome_metric(name, RungOutcome::kHit));
    instruments.miss =
        metrics.counter(rung_outcome_metric(name, RungOutcome::kMiss));
    rung_instruments_.emplace(std::string(name), instruments);
  };
  const auto add_source = [&](const char* name) {
    if (source_counters_.find(std::string_view{name}) !=
        source_counters_.end()) {
      return;
    }
    source_counters_.emplace(name, metrics.counter(source_metric(name)));
  };
  // Schema baseline first (every pipeline exports these, whatever its
  // ladder), then whatever extra rungs/sources this ladder brings.
  for (const char* name : schema_rung_names()) add_rung(name);
  for (const auto& rung : rungs_) add_rung(to_string(rung->trace_rung()));
  for (const char* name : schema_source_names()) add_source(name);
  for (const auto& rung : rungs_) {
    if (const char* extra = rung->extra_source()) add_source(extra);
  }
  // Rung-owned subsystem instruments (regions block counters, ...).
  for (const auto& rung : rungs_) rung->register_metrics(metrics);
  dropped_counter_ = metrics.counter("pipeline/dropped");
}

double ReusePipeline::compute_energy() const {
  // CPU-active time converts at the configured power draw; DNN runs carry
  // their own calibrated energy figure on top.
  const double cpu_mj = to_ms(ctx_->compute_latency) *
                        config_.cpu_active_power_mw / 1000.0;
  return cpu_mj + ctx_->dnn_energy;
}

void ReusePipeline::finish(ResultSource source, Label label,
                           float confidence) {
  assert(busy_ && ctx_.has_value());
  RecognitionResult result;
  result.frame_time = ctx_->frame.t;
  result.completion_time = sim_->now();
  result.latency = result.completion_time - result.frame_time;
  result.label = label;
  result.true_label = ctx_->frame.true_label;
  result.correct = (label == result.true_label);
  result.source = source;
  result.compute_energy_mj = compute_energy();
  if (metrics_ != nullptr) {
    for (const TraceSpan& span : trace_.spans()) {
      const auto it =
          rung_instruments_.find(std::string_view{to_string(span.rung)});
      assert(it != rung_instruments_.end());
      metrics_->record(it->second.latency_us,
                       static_cast<double>(span.end - span.start));
      metrics_->inc(span.outcome == RungOutcome::kHit ? it->second.hit
                                                      : it->second.miss);
    }
    const auto source_it =
        source_counters_.find(std::string_view{to_string(source)});
    assert(source_it != source_counters_.end());
    metrics_->inc(source_it->second);
  }

  last_result_ = Prediction{label, confidence};
  // The fast path must not refresh its own freshness clock: a result is
  // only "fresh" for imu_fastpath_max_age after something actually looked
  // at pixels, otherwise one stale label could persist forever while the
  // device sits still.
  if (source != ResultSource::kImuFastPath) {
    last_result_time_ = sim_->now();
  }
  // Every rung observes the outcome while the context is still alive
  // (keyframe refresh, warm-tier learning, ...).
  for (const auto& rung : rungs_) rung->on_result(*this, result);

  Callback done = std::move(ctx_->done);
  ctx_.reset();
  busy_ = false;
  done(result);
}

}  // namespace apx
