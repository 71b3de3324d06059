#include "benchmark/src/workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/config.hpp"
#include "src/sim/runner.hpp"
#include "src/util/rng.hpp"

namespace apxbench {

using apx::kSecond;
using apx::ScenarioConfig;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"museum", "kiosk", "roam",
                                                 "crowd"};
  return names;
}

apx::ScenarioConfig Workload::config_for(int r) const {
  apx::Rng rng{seed};
  std::uint64_t repeat_seed = 0;
  for (int i = 0; i <= r; ++i) repeat_seed = rng.next_u64();
  ScenarioConfig cfg = config;
  cfg.seed = repeat_seed;
  return cfg;
}

int Workload::repeats_for(double seconds, int min_repeats) const {
  return std::max(min_repeats, static_cast<int>(seconds / repeat_seconds));
}

namespace {

constexpr apx::SimDuration kSmokeDuration = 3 * kSecond;

// The evaluation scenario of the paper's tables: four co-located devices,
// 64 classes, Zipf 0.9, mixed mobility, 10 fps, the full-system ladder.
// Every rung answers a share of frames, so a regression anywhere shows.
ScenarioConfig museum() {
  ScenarioConfig cfg = apx::default_scenario();
  cfg.num_devices = 4;
  cfg.scene.num_classes = 64;
  cfg.zipf_s = 0.9;
  cfg.pipeline = apx::make_ladder_config("imu,temporal,local,p2p,dnn");
  cfg.duration = 60 * kSecond;
  return cfg;
}

// Users dwelling on objects: the IMU gate and temporal reuse answer most
// frames, so the driver, event loop and IMU work are the largest non-CNN
// cost. A change to the cache or ANN should not move anything here. The
// key is the cheap downsample: with the CNN, the few frames that reach it
// made up most of the ladder time, and how many they were swung from seed
// to seed far more than the driver cost this workload is here to show.
ScenarioConfig kiosk() {
  ScenarioConfig cfg = museum();
  cfg.p_stationary = 0.80;
  cfg.p_minor = 0.17;
  cfg.p_major = 0.03;
  cfg.zipf_s = 1.1;
  cfg.extractor = apx::ExtractorKind::kDownsample;
  return cfg;
}

// One fast-moving device over a large, flat world with a cheap key: the
// cache, the ANN and eviction carry the ladder cost, the cache fills and
// then inserts plus evicts on every miss, and the DNN is busy often enough
// at 30 fps for frames to be dropped.
ScenarioConfig roam() {
  ScenarioConfig cfg = apx::default_scenario();
  cfg.num_devices = 1;
  cfg.video.fps = 30.0;
  cfg.scene.num_classes = 1024;
  cfg.zipf_s = 0.6;
  cfg.p_stationary = 0.1;
  cfg.p_minor = 0.3;
  cfg.p_major = 0.6;
  cfg.pipeline = apx::make_ladder_config("imu,temporal,local,dnn");
  cfg.pipeline.cache.capacity = 512;
  cfg.extractor = apx::ExtractorKind::kDownsample;
  cfg.duration = 120 * kSecond;
  return cfg;
}

// Eight co-located devices sharing a region edge cache: P2P adverts and
// merges and edge feeds write into the caches beside the local reads, so
// the network, P2P and edge layers do most of their work here.
ScenarioConfig crowd() {
  ScenarioConfig cfg = apx::default_scenario();
  cfg.num_devices = 8;
  cfg.scene.num_classes = 256;
  cfg.zipf_s = 0.7;
  cfg.pipeline =
      apx::make_ladder_config("imu,temporal,local,p2p,edge(shards=4),dnn");
  cfg.duration = 30 * kSecond;
  return cfg;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  if (name == "museum") {
    w.config = museum();
    w.repeat_seconds = 5.0;
  } else if (name == "kiosk") {
    w.config = kiosk();
    w.repeat_seconds = 3.5;
  } else if (name == "roam") {
    w.config = roam();
    w.repeat_seconds = 5.0;
  } else if (name == "crowd") {
    w.config = crowd();
    w.repeat_seconds = 6.0;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "' (museum, kiosk, roam, crowd)");
  }
  if (smoke) w.config.duration = kSmokeDuration;
  return w;
}

}  // namespace apxbench
