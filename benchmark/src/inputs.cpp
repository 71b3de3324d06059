#include "benchmark/src/inputs.hpp"

#include <stdexcept>

#include "src/core/rungs/ladder.hpp"
#include "src/imu/mobility.hpp"
#include "src/sim/runner.hpp"

namespace apxbench {

std::size_t FleetInputs::offered() const {
  std::size_t n = 0;
  for (const DeviceInputs& d : devices) n += d.frames.size();
  return n;
}

FleetInputs generate_inputs(const apx::ScenarioConfig& scenario,
                            Tracer* tracer) {
  if (scenario.faults.any() || scenario.churn_period > 0 ||
      scenario.edge_down_at > 0 || scenario.use_real_classifier ||
      scenario.num_threads > 1 || scenario.num_devices < 1) {
    throw std::invalid_argument(
        "generate_inputs: scenario feature not mirrored by the ladder leg");
  }
  FleetInputs in;
  in.config = scenario;
  apx::ScenarioConfig& cfg = in.config;
  // The same normalisation ExperimentRunner's constructor applies.
  if (!cfg.pipeline.ladder.empty()) {
    apx::apply_ladder(cfg.pipeline, apx::LadderSpec::parse(cfg.pipeline.ladder));
  }
  cfg.pipeline.cache.alsh.lsh.quantize.enabled =
      cfg.pipeline.enable_quantized_scan;
  in.extractor = apx::make_extractor(cfg.extractor);
  if (cfg.auto_threshold) {
    cfg.pipeline.cache.hknn.max_distance =
        in.extractor->recommended_max_distance();
  }

  // RNG forks in the runner's order: the medium seed, then per device
  // fork() -> mobility, stream seed, IMU seed, pipeline seed.
  apx::Rng master{cfg.seed};
  const apx::SceneGenerator scenes(cfg.scene);
  const apx::ZipfSampler popularity(
      static_cast<std::size_t>(cfg.scene.num_classes), cfg.zipf_s);
  in.medium_seed = master.next_u64();
  for (int d = 0; d < cfg.num_devices; ++d) {
    apx::Rng rng = master.fork();
    const apx::MobilityModel mobility = apx::MobilityModel::random(
        rng, cfg.duration + apx::kSecond, cfg.mean_segment, cfg.p_stationary,
        cfg.p_minor, cfg.p_major);
    apx::VideoStreamGenerator stream(scenes, mobility, popularity, cfg.video,
                                     rng.next_u64());
    apx::ImuTraceGenerator imu(mobility, cfg.imu_rate_hz, rng.next_u64());
    DeviceInputs device;
    device.pipeline_seed = rng.next_u64();
    apx::SimTime last_pull = 0;
    for (std::int64_t i = 0; stream.next_frame_time() < cfg.duration; ++i) {
      const apx::SimTime t = stream.next_frame_time();
      std::vector<apx::ImuSample> window;
      apx::Frame frame;
      {
        ScopedSpan span(tracer, SpanName::kImuSynth, d, i);
        window = imu.samples_between(last_pull, t);
      }
      {
        ScopedSpan span(tracer, SpanName::kRender, d, i);
        frame = stream.next();
      }
      last_pull = t;
      device.imu.push_back(std::move(window));
      device.frames.push_back(std::move(frame));
    }
    in.devices.push_back(std::move(device));
  }
  return in;
}

}  // namespace apxbench
