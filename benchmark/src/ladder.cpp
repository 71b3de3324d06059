#include "benchmark/src/ladder.hpp"

#include <memory>

#include "benchmark/src/alloc_count.hpp"
#include "src/core/pipeline.hpp"
#include "src/dnn/oracle.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/edge/edge_client.hpp"
#include "src/imu/motion_estimator.hpp"
#include "src/net/event_sim.hpp"
#include "src/net/medium.hpp"
#include "src/obs/metrics.hpp"
#include "src/p2p/peer_cache.hpp"
#include "src/sim/runner.hpp"

namespace apxbench {

namespace {

/// The frame a device's pipeline holds in flight. The pipeline takes one
/// frame at a time, so every extract/infer call belongs to this frame.
struct Cursor {
  std::int32_t device = 0;
  std::int64_t frame = -1;
};

class TracedExtractor final : public apx::FeatureExtractor {
 public:
  TracedExtractor(const apx::FeatureExtractor& inner, Tracer& tracer,
                  const Cursor& cursor, const DeviceInputs& inputs,
                  const apx::EventSimulator& sim,
                  std::vector<RecordedKey>* keys)
      : inner_(&inner), tracer_(&tracer), cursor_(&cursor), inputs_(&inputs),
        sim_(&sim), keys_(keys) {}

  const std::string& name() const noexcept override { return inner_->name(); }
  std::size_t dim() const noexcept override { return inner_->dim(); }
  apx::SimDuration latency() const noexcept override {
    return inner_->latency();
  }
  float recommended_max_distance() const noexcept override {
    return inner_->recommended_max_distance();
  }
  const apx::MiniCnn* staged_cnn() const noexcept override {
    return inner_->staged_cnn();
  }

  apx::FeatureVec extract(const apx::Image& img) const override {
    apx::FeatureVec features;
    {
      ScopedSpan span(tracer_, SpanName::kExtract, cursor_->device,
                      cursor_->frame);
      features = inner_->extract(img);
    }
    if (keys_ != nullptr && cursor_->frame >= 0) {
      const auto frame = static_cast<std::size_t>(cursor_->frame);
      keys_->push_back({cursor_->device, cursor_->frame, sim_->now(),
                        features, inputs_->frames[frame].true_label});
    }
    return features;
  }

 private:
  const apx::FeatureExtractor* inner_;
  Tracer* tracer_;
  const Cursor* cursor_;
  const DeviceInputs* inputs_;
  const apx::EventSimulator* sim_;
  std::vector<RecordedKey>* keys_;
};

class TracedModel final : public apx::RecognitionModel {
 public:
  TracedModel(std::unique_ptr<apx::RecognitionModel> inner, Tracer& tracer,
              const Cursor& cursor)
      : inner_(std::move(inner)), tracer_(&tracer), cursor_(&cursor) {}

  const std::string& name() const noexcept override { return inner_->name(); }
  apx::SimDuration sample_latency(apx::Rng& rng) const override {
    return inner_->sample_latency(rng);
  }
  double energy_mj() const noexcept override { return inner_->energy_mj(); }
  const apx::ModelProfile& profile() const noexcept override {
    return inner_->profile();
  }

  apx::Prediction infer(const apx::Image& img, apx::Label true_label,
                        apx::Rng& rng) override {
    ScopedSpan span(tracer_, SpanName::kInfer, cursor_->device,
                    cursor_->frame);
    return inner_->infer(img, true_label, rng);
  }

 private:
  std::unique_ptr<apx::RecognitionModel> inner_;
  Tracer* tracer_;
  const Cursor* cursor_;
};

class CountingEviction final : public apx::EvictionPolicy {
 public:
  CountingEviction(std::unique_ptr<apx::EvictionPolicy> inner,
                   std::uint64_t& calls)
      : inner_(std::move(inner)), calls_(&calls) {}

  const std::string& name() const noexcept override { return inner_->name(); }
  double score(const apx::CacheEntry& entry, apx::SimTime now) const override {
    ++*calls_;
    return inner_->score(entry, now);
  }

 private:
  std::unique_ptr<apx::EvictionPolicy> inner_;
  std::uint64_t* calls_;
};

struct Device {
  const DeviceInputs* inputs = nullptr;
  Cursor cursor;
  std::size_t next_frame = 0;
  std::unique_ptr<apx::FeatureExtractor> traced_extractor;
  std::unique_ptr<apx::MotionEstimator> motion;
  std::unique_ptr<apx::RecognitionModel> model;
  std::unique_ptr<apx::ApproxCache> cache;
  std::unique_ptr<apx::ExactCache> exact_cache;
  std::unique_ptr<apx::PeerCacheService> peers;
  std::unique_ptr<apx::EdgeClient> edge;
  apx::MetricsRegistry registry;
  std::unique_ptr<apx::ReusePipeline> pipeline;
  apx::ExperimentMetrics metrics;
};

/// The runner's world for one scenario, built from public classes in
/// runner.cpp's construction order. Scheduled events hold its address.
class Fleet {
 public:
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Fleet(const FleetInputs& in, Tracer* tracer,
        std::vector<RecordedKey>* keys, std::uint64_t& evict_scores)
      : in_(&in),
        tracer_(tracer),
        medium_(sim_, in.config.medium, in.medium_seed) {
    const apx::ScenarioConfig& cfg = in.config;
    const apx::FeatureExtractor& extractor = *in.extractor;
    if (cfg.pipeline.enable_edge) {
      apx::EdgeParams edge_params = cfg.pipeline.edge;
      edge_params.cache = cfg.pipeline.cache;
      edge_service_ =
          std::make_unique<apx::EdgeCacheService>(extractor.dim(), edge_params);
      edge_service_->attach_network(sim_, medium_, /*cell=*/0);
      edge_service_->attach_metrics(edge_registry_);
    }
    for (int d = 0; d < cfg.num_devices; ++d) {
      auto device = std::make_unique<Device>();
      device->inputs = &in.devices[static_cast<std::size_t>(d)];
      device->cursor.device = d;
      device->motion =
          std::make_unique<apx::MotionEstimator>(cfg.pipeline.motion);
      const int oracle_groups =
          cfg.scene.class_confusion > 0.0f ? cfg.scene.group_size : 1;
      device->model = apx::make_oracle_model(
          cfg.model, cfg.scene.num_classes, oracle_groups);
      const apx::FeatureExtractor* device_extractor = &extractor;
      if (tracer != nullptr) {
        device->model = std::make_unique<TracedModel>(
            std::move(device->model), *tracer, device->cursor);
        device->traced_extractor = std::make_unique<TracedExtractor>(
            extractor, *tracer, device->cursor, *device->inputs, sim_, keys);
        device_extractor = device->traced_extractor.get();
      }
      if (cfg.pipeline.enable_local_cache) {
        std::unique_ptr<apx::EvictionPolicy> eviction =
            apx::make_eviction(cfg.eviction);
        if (tracer != nullptr) {
          eviction = std::make_unique<CountingEviction>(std::move(eviction),
                                                        evict_scores);
        }
        device->cache = std::make_unique<apx::ApproxCache>(
            extractor.dim(), cfg.pipeline.cache, std::move(eviction));
      } else if (cfg.pipeline.enable_exact_cache) {
        device->exact_cache =
            std::make_unique<apx::ExactCache>(cfg.pipeline.cache.capacity);
      }
      const int cell = cfg.co_located ? 0 : d;
      if (cfg.pipeline.enable_p2p && device->cache != nullptr) {
        device->peers = std::make_unique<apx::PeerCacheService>(
            sim_, medium_, *device->cache, cfg.peer, cell);
      }
      if (cfg.pipeline.enable_edge) {
        device->edge = std::make_unique<apx::EdgeClient>(
            sim_, medium_, edge_service_->id(), edge_service_->params(), cell);
      }
      device->pipeline = std::make_unique<apx::ReusePipeline>(
          sim_, cfg.pipeline, *device_extractor, *device->model,
          device->cache.get(), device->exact_cache.get(), device->peers.get(),
          device->edge.get(), device->inputs->pipeline_seed);
      if (device->cache) device->cache->attach_metrics(device->registry);
      if (device->peers) device->peers->attach_metrics(device->registry);
      if (device->edge) device->edge->attach_metrics(device->registry);
      device->pipeline->attach_metrics(device->registry);
      devices_.push_back(std::move(device));
    }
  }

  /// Starts every endpoint and drains the event queue exactly as
  /// ExperimentRunner::run does, then fills `out`.
  void run(LadderResult& out) {
    if (edge_service_) edge_service_->start();
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      Device& device = *devices_[d];
      if (device.peers) device.peers->start();
      if (device.edge) device.edge->start();
      schedule_next(d);
    }
    // The runner drains with run_until(duration + 5 s), which runs every
    // event at or before that time. A sentinel one microsecond later, queued
    // before anything can be scheduled that late, fires right after them.
    bool drained = false;
    sim_.schedule_at(in_->config.duration + 5 * apx::kSecond + 1,
                     [&drained] { drained = true; });
    const std::uint64_t allocs = allocation_count();
    const std::int64_t start = now_ns();
    std::int64_t chunk_start = start;
    while (!drained) {
      {
        ScopedSpan span(tracer_, SpanName::kEvent);
        sim_.step();
      }
      if (++out.events % kChunkEvents == 0) {
        const std::int64_t t = now_ns();
        out.chunk_ns.push_back(t - chunk_start);
        chunk_start = t;
      }
    }
    const std::int64_t end = now_ns();
    out.chunk_ns.push_back(end - chunk_start);
    out.loop_s = static_cast<double>(end - start) * 1e-9;
    out.allocs = allocation_count() - allocs;

    for (const auto& device : devices_) {
      if (device->peers) {
        device->metrics.add_radio_energy_mj(
            medium_.energy_mj(device->peers->id()));
      }
      if (device->edge) {
        device->metrics.add_radio_energy_mj(
            medium_.energy_mj(device->edge->id()));
      }
      out.device_metrics.push_back(device->metrics);
    }
    out.net = medium_.counters();
  }

 private:
  void schedule_next(std::size_t d) {
    Device& device = *devices_[d];
    if (device.next_frame >= device.inputs->frames.size()) return;
    sim_.schedule_at(device.inputs->frames[device.next_frame].t,
                     [this, d] { tick(d); });
  }

  /// The runner's device_tick with the camera and IMU read from inputs.
  void tick(std::size_t d) {
    Device& device = *devices_[d];
    const std::size_t i = device.next_frame++;
    const auto frame_index = static_cast<std::int64_t>(i);
    apx::MotionState motion;
    {
      ScopedSpan span(tracer_, SpanName::kImuEstimate, device.cursor.device,
                      frame_index);
      device.motion->add_all(device.inputs->imu[i]);
      motion = device.motion->estimate();
    }
    bool accepted = false;
    {
      ScopedSpan span(tracer_, SpanName::kProcess, device.cursor.device,
                      frame_index);
      const std::int64_t in_flight = device.cursor.frame;
      device.cursor.frame = frame_index;
      accepted = device.pipeline->process(
          device.inputs->frames[i], motion,
          [&device](const apx::RecognitionResult& result) {
            device.metrics.record(result);
          });
      if (!accepted) device.cursor.frame = in_flight;
    }
    if (!accepted) device.metrics.record_dropped();
    schedule_next(d);
  }

  const FleetInputs* in_;
  Tracer* tracer_;
  apx::EventSimulator sim_;
  apx::WirelessMedium medium_;
  apx::MetricsRegistry edge_registry_;
  std::unique_ptr<apx::EdgeCacheService> edge_service_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace

LadderResult run_ladder(const FleetInputs& inputs, Tracer* tracer,
                        std::vector<RecordedKey>* keys) {
  LadderResult out;
  Fleet fleet(inputs, tracer, keys, out.evict_scores);
  fleet.run(out);
  return out;
}

}  // namespace apxbench
