#include "src/sim/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/pipeline.hpp"
#include "src/dnn/centroid.hpp"
#include "src/dnn/oracle.hpp"
#include "src/edge/edge_cache.hpp"
#include "src/edge/edge_client.hpp"
#include "src/imu/trace.hpp"
#include "src/net/event_sim.hpp"

namespace apx {

ScenarioConfig default_scenario() {
  ScenarioConfig cfg;
  cfg.scene.num_classes = 64;
  cfg.scene.image_size = 32;
  cfg.num_devices = 4;
  cfg.duration = 60 * kSecond;
  cfg.pipeline = make_full_system_config();
  return cfg;
}

std::unique_ptr<FeatureExtractor> make_extractor(ExtractorKind kind) {
  switch (kind) {
    case ExtractorKind::kDownsample: return make_downsample_extractor();
    case ExtractorKind::kHistogram: return make_histogram_extractor();
    case ExtractorKind::kHog: return make_hog_extractor();
    case ExtractorKind::kCnn: return make_cnn_extractor();
  }
  throw std::invalid_argument("make_extractor: unknown kind");
}

std::unique_ptr<EvictionPolicy> make_eviction(EvictionKind kind) {
  switch (kind) {
    case EvictionKind::kLru: return make_lru_policy();
    case EvictionKind::kLfu: return make_lfu_policy();
    case EvictionKind::kUtility: return make_utility_policy();
  }
  throw std::invalid_argument("make_eviction: unknown kind");
}

namespace {

/// Everything one simulated device owns.
struct Device {
  std::unique_ptr<MobilityModel> mobility;
  std::unique_ptr<VideoStreamGenerator> stream;
  std::unique_ptr<ImuTraceGenerator> imu;
  std::unique_ptr<MotionEstimator> motion;
  std::unique_ptr<RecognitionModel> model;
  std::unique_ptr<ApproxCache> cache;
  std::unique_ptr<ExactCache> exact_cache;
  std::unique_ptr<PeerCacheService> peers;
  std::unique_ptr<EdgeClient> edge;
  std::unique_ptr<ReusePipeline> pipeline;
  SimTime last_imu_pull = 0;
  ExperimentMetrics metrics;
  /// Private registry; the runner merges these in device order after the
  /// run.
  MetricsRegistry registry;
  Rng churn_rng{0};
};

}  // namespace

struct ExperimentRunner::Impl {
  ScenarioConfig config;
  /// The one event world every device, peer link and edge feed lives in.
  EventSimulator sim;
  std::unique_ptr<WirelessMedium> medium;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<SceneGenerator> scenes;
  std::unique_ptr<ZipfSampler> popularity;
  std::unique_ptr<FeatureExtractor> extractor;
  std::vector<std::unique_ptr<Device>> devices;
  std::unique_ptr<EdgeCacheService> edge_service;
  /// The edge service's private registry; merged into the pooled registry
  /// after the devices, in run().
  MetricsRegistry edge_registry;
  std::vector<ExperimentMetrics> device_metrics;
  MetricsRegistry pooled_registry;
  TraceRecorder trace;
  bool ran = false;

  explicit Impl(const ScenarioConfig& scenario) : config(scenario) {
    if (config.num_devices < 1) {
      throw std::invalid_argument("ScenarioConfig: num_devices < 1");
    }
    if (config.num_threads != 1) {
      throw std::invalid_argument("ScenarioConfig: num_threads must be 1");
    }
    // A declarative ladder spec is authoritative: sync the enable_* flags
    // to it up front so provisioning (cache, peers, edge) sees the same
    // composition the pipelines will run.
    if (!config.pipeline.ladder.empty()) {
      apply_ladder(config.pipeline, LadderSpec::parse(config.pipeline.ladder));
    }
    // Flag-driven configs (presets with enable_quantized_scan toggled)
    // must reach the cache config the caches are built from below;
    // apply_ladder already did this for spec-driven configs.
    config.pipeline.cache.alsh.lsh.quantize.enabled =
        config.pipeline.enable_quantized_scan;

    Rng master{config.seed};
    scenes = std::make_unique<SceneGenerator>(config.scene);
    popularity = std::make_unique<ZipfSampler>(
        static_cast<std::size_t>(config.scene.num_classes), config.zipf_s);
    const std::uint64_t medium_seed = master.next_u64();
    medium = std::make_unique<WirelessMedium>(sim, config.medium, medium_seed);
    if (config.faults.any()) {
      // Derived arithmetically from the medium seed (no extra master draw),
      // so enabling faults never shifts the per-device RNG streams of the
      // fault-free portion of a run.
      faults = std::make_unique<FaultInjector>(
          config.faults, medium_seed ^ 0xfa017c0de5eedULL);
      faults->plan_crashes(static_cast<std::size_t>(config.num_devices),
                           config.duration);
      medium->attach_faults(faults.get());
    }
    extractor = make_extractor(config.extractor);
    if (config.auto_threshold) {
      config.pipeline.cache.hknn.max_distance =
          extractor->recommended_max_distance();
    }

    if (config.pipeline.enable_edge) {
      // One region edge service, living on the shared cell. Its per-shard
      // index/vote configuration tracks the device caches' (including the
      // auto-threshold calibration above) so a vote means the same thing at
      // every tier; capacity comes from EdgeParams, not the device config.
      EdgeParams edge_params = config.pipeline.edge;
      edge_params.cache = config.pipeline.cache;
      edge_service =
          std::make_unique<EdgeCacheService>(extractor->dim(), edge_params);
      edge_service->attach_network(sim, *medium, /*cell=*/0);
      edge_service->attach_metrics(edge_registry);
    }

    for (int d = 0; d < config.num_devices; ++d) {
      auto device = std::make_unique<Device>();
      Rng rng = master.fork();
      device->mobility = std::make_unique<MobilityModel>(MobilityModel::random(
          rng, config.duration + kSecond, config.mean_segment, config.p_stationary,
          config.p_minor, config.p_major));
      device->stream = std::make_unique<VideoStreamGenerator>(
          *scenes, *device->mobility, *popularity, config.video, rng.next_u64());
      device->imu = std::make_unique<ImuTraceGenerator>(
          *device->mobility, config.imu_rate_hz, rng.next_u64());
      device->motion =
          std::make_unique<MotionEstimator>(config.pipeline.motion);

      const int oracle_groups =
          config.scene.class_confusion > 0.0f ? config.scene.group_size : 1;
      if (config.use_real_classifier) {
        device->model = std::make_unique<CentroidClassifier>(
            *scenes, /*samples_per_class=*/8, config.model, config.seed + 1000);
      } else {
        device->model = make_oracle_model(config.model, config.scene.num_classes,
                                          oracle_groups);
      }

      if (config.pipeline.enable_local_cache) {
        device->cache = std::make_unique<ApproxCache>(
            extractor->dim(), config.pipeline.cache,
            make_eviction(config.eviction));
      } else if (config.pipeline.enable_exact_cache) {
        device->exact_cache =
            std::make_unique<ExactCache>(config.pipeline.cache.capacity);
      }

      const int cell = config.co_located ? 0 : d;
      if (config.pipeline.enable_p2p && device->cache != nullptr) {
        device->peers = std::make_unique<PeerCacheService>(
            sim, *medium, *device->cache, config.peer, cell);
      }
      if (config.pipeline.enable_edge) {
        device->edge = std::make_unique<EdgeClient>(
            sim, *medium, edge_service->id(), edge_service->params(), cell);
      }

      device->pipeline = std::make_unique<ReusePipeline>(
          sim, config.pipeline, *extractor, *device->model,
          device->cache.get(), device->exact_cache.get(), device->peers.get(),
          device->edge.get(), rng.next_u64());
      if (device->cache) device->cache->attach_metrics(device->registry);
      if (device->peers) device->peers->attach_metrics(device->registry);
      if (device->edge) device->edge->attach_metrics(device->registry);
      device->pipeline->attach_metrics(device->registry);
      device->churn_rng = rng.fork();
      devices.push_back(std::move(device));
    }
  }

  /// Radio-range churn: toggles the device between the shared cell (0) and
  /// a private cell. `present` is the state being entered now.
  void schedule_churn(std::size_t index, bool present) {
    Device& device = *devices[index];
    if (!device.peers) return;
    const double f = std::clamp(config.churn_away_fraction, 0.01, 0.99);
    const double mean = static_cast<double>(config.churn_period) *
                        (present ? (1.0 - f) : f);
    const auto stay = static_cast<SimDuration>(
        device.churn_rng.exponential(1.0 / std::max(mean, 1.0)));
    sim.schedule_after(stay, [this, index, present] {
      Device& d = *devices[index];
      const NodeId node = d.peers->id();
      medium->set_cell(node, present ? 1000 + static_cast<int>(index) : 0);
      schedule_churn(index, !present);
    });
  }

  /// Simulated process crash: the device's cache is wiped, its P2P endpoint
  /// goes silent (pending lookups fail into the local/DNN fallback) and its
  /// radio leaves the air. The pipeline itself keeps running — the app
  /// restarts cold, exactly the FoggyCache-style churn regime.
  void crash_device(std::size_t index) {
    Device& device = *devices[index];
    faults->note_crash();
    if (device.cache) device.cache->clear();
    if (device.peers) {
      device.peers->stop();
      medium->set_cell(device.peers->id(), 2000 + static_cast<int>(index));
    }
    if (device.edge) {
      device.edge->stop();
      medium->set_cell(device.edge->id(), 3000 + static_cast<int>(index));
    }
  }

  /// Restart after a crash: back on the air (rejoining the shared cell —
  /// any in-progress churn excursion is forgotten), beaconing resumes, and
  /// neighbours' first-contact hot-set pushes warm the wiped cache.
  void restart_device(std::size_t index) {
    Device& device = *devices[index];
    faults->note_restart();
    const int cell = config.co_located ? 0 : static_cast<int>(index);
    if (device.peers) {
      medium->set_cell(device.peers->id(), cell);
      device.peers->start();
    }
    if (device.edge) {
      medium->set_cell(device.edge->id(), cell);
      device.edge->start();
    }
  }

  void schedule_device_frames(std::size_t index) {
    Device& device = *devices[index];
    const SimTime frame_time = device.stream->next_frame_time();
    if (frame_time >= config.duration) return;
    sim.schedule_at(frame_time, [this, index] { device_tick(index); });
  }

  void device_tick(std::size_t index) {
    Device& device = *devices[index];
    // Sensor hub: feed the motion estimator with all IMU samples since the
    // previous frame, then classify.
    const SimTime now = sim.now();
    device.motion->add_all(device.imu->samples_between(device.last_imu_pull,
                                                       now));
    device.last_imu_pull = now;

    const Frame frame = device.stream->next();
    const MotionState motion = device.motion->estimate();
    const bool accepted = device.pipeline->process(
        frame, motion,
        [this, &device, index](const RecognitionResult& result) {
          device.metrics.record(result);
          if (config.record_trace) {
            trace.record(static_cast<std::uint32_t>(index), result);
          }
        });
    if (!accepted) device.metrics.record_dropped();
    schedule_device_frames(index);
  }

  ExperimentMetrics run() {
    if (ran) throw std::logic_error("ExperimentRunner::run: already ran");
    ran = true;
    if (edge_service) {
      edge_service->start();
      // Edge chaos hooks: a crash stops the service and wipes every shard;
      // a later restart comes back empty.
      if (config.edge_down_at > 0) {
        sim.schedule_at(config.edge_down_at, [this] { edge_service->stop(); });
        if (config.edge_up_at > config.edge_down_at) {
          sim.schedule_at(config.edge_up_at, [this] { edge_service->start(); });
        }
      }
    }
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (devices[d]->peers) devices[d]->peers->start();
      if (devices[d]->edge) devices[d]->edge->start();
      if (config.churn_period > 0 && config.co_located) {
        schedule_churn(d, /*present=*/true);
      }
      schedule_device_frames(d);
    }
    if (faults != nullptr) {
      // The schedule was precomputed at construction (idempotent call), so
      // the timeline is independent of event execution order.
      for (const CrashEvent& ev : faults->plan_crashes(
               static_cast<std::size_t>(config.num_devices), config.duration)) {
        sim.schedule_at(ev.down_at, [this, d = ev.device] { crash_device(d); });
        sim.schedule_at(ev.up_at, [this, d = ev.device] { restart_device(d); });
      }
    }
    sim.run_until(config.duration + 5 * kSecond);  // drain in-flight

    // Pool in global device order.
    ExperimentMetrics pooled;
    device_metrics.clear();
    for (const auto& device : devices) {
      if (device->peers) {
        device->metrics.add_radio_energy_mj(
            medium->energy_mj(device->peers->id()));
      }
      if (device->edge) {
        device->metrics.add_radio_energy_mj(
            medium->energy_mj(device->edge->id()));
      }
      pooled_registry.merge(device->registry);
      pooled.merge(device->metrics);
      device_metrics.push_back(device->metrics);
    }
    if (edge_service) pooled_registry.merge(edge_registry);
    // Register every fault key unconditionally so the export schema is
    // identical for chaos and fault-free runs (zeros in the latter).
    for (const std::string& key : FaultInjector::counter_keys()) {
      const auto id = pooled_registry.counter("faults/" + key);
      if (faults != nullptr) {
        pooled_registry.inc(id, faults->counters().get(key));
      }
    }
    return pooled;
  }
};

ExperimentRunner::ExperimentRunner(const ScenarioConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

ExperimentRunner::~ExperimentRunner() = default;

ExperimentMetrics ExperimentRunner::run() { return impl_->run(); }

const std::vector<ExperimentMetrics>& ExperimentRunner::device_metrics()
    const noexcept {
  return impl_->device_metrics;
}

std::size_t ExperimentRunner::edge_cache_size() const {
  return impl_->edge_service ? impl_->edge_service->size() : 0;
}

const MetricsRegistry& ExperimentRunner::metrics() const noexcept {
  return impl_->pooled_registry;
}

const TraceRecorder& ExperimentRunner::trace() const { return impl_->trace; }

ExperimentMetrics run_scenario(const ScenarioConfig& config) {
  ExperimentRunner runner{config};
  return runner.run();
}

}  // namespace apx
